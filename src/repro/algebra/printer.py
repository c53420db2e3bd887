"""Readable, indented rendering of operator trees (EXPLAIN output)."""

from __future__ import annotations

from repro.algebra.nested import Apply, NestedSelect
from repro.algebra.operators import (
    Difference,
    Distinct,
    GroupBy,
    Intersect,
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
    Union,
)


def explain(plan: Operator, indent: int = 0) -> str:
    """Render an operator tree as an indented outline."""
    lines: list[str] = []
    _render(plan, indent, lines)
    return "\n".join(lines)


def _pad(indent: int) -> str:
    return "  " * indent


def _render(node: Operator, indent: int, lines: list[str]) -> None:
    from repro.gmdj.evaluate import SelectGMDJ
    from repro.gmdj.operator import GMDJ

    pad = _pad(indent)
    if isinstance(node, ScanTable):
        alias = f" -> {node.alias}" if node.alias else ""
        lines.append(f"{pad}Scan {node.table_name}{alias}")
    elif isinstance(node, TableValue):
        label = node.relation.name or "materialized"
        lines.append(f"{pad}Table [{label}] ({len(node.relation)} rows)")
    elif isinstance(node, Select):
        lines.append(f"{pad}Select [{node.predicate!r}]")
        _render(node.child, indent + 1, lines)
    elif isinstance(node, NestedSelect):
        lines.append(f"{pad}NestedSelect [{node.predicate!r}]")
        _render(node.child, indent + 1, lines)
    elif isinstance(node, Project):
        items = ", ".join(
            item if isinstance(item, str) else repr(ProjectItem.of(item).expression)
            for item in node.items
        )
        distinct = " DISTINCT" if node.distinct else ""
        lines.append(f"{pad}Project{distinct} [{items}]")
        _render(node.child, indent + 1, lines)
    elif isinstance(node, Rename):
        lines.append(f"{pad}Rename -> {node.qualifier}")
        _render(node.child, indent + 1, lines)
    elif isinstance(node, Distinct):
        lines.append(f"{pad}Distinct")
        _render(node.child, indent + 1, lines)
    elif isinstance(node, Join):
        lines.append(
            f"{pad}Join {node.kind} ({node.method}) [{node.condition!r}]"
        )
        _render(node.left, indent + 1, lines)
        _render(node.right, indent + 1, lines)
    elif isinstance(node, (Union, Difference, Intersect)):
        kind = type(node).__name__
        mode = "DISTINCT" if node.distinct else "ALL"
        lines.append(f"{pad}{kind} {mode}")
        _render(node.left, indent + 1, lines)
        _render(node.right, indent + 1, lines)
    elif isinstance(node, OrderBy):
        keys = ", ".join(
            f"{ref} {'DESC' if desc else 'ASC'}" for ref, desc in node.keys
        )
        lines.append(f"{pad}OrderBy [{keys}]")
        _render(node.child, indent + 1, lines)
    elif isinstance(node, Limit):
        suffix = f" OFFSET {node.offset}" if node.offset else ""
        lines.append(f"{pad}Limit {node.count}{suffix}")
        _render(node.child, indent + 1, lines)
    elif isinstance(node, GroupBy):
        aggs = ", ".join(repr(spec) for spec in node.aggregates)
        lines.append(f"{pad}GroupBy keys={list(node.keys)} aggs=[{aggs}]")
        _render(node.child, indent + 1, lines)
    elif isinstance(node, GMDJ):
        lines.append(f"{pad}GMDJ ({len(node.blocks)} theta-blocks)")
        for i, block in enumerate(node.blocks, 1):
            aggs = ", ".join(repr(spec) for spec in block.aggregates)
            lines.append(f"{_pad(indent + 1)}l{i}: [{aggs}]")
            lines.append(f"{_pad(indent + 1)}theta{i}: {block.condition!r}")
        lines.append(f"{_pad(indent + 1)}base:")
        _render(node.base, indent + 2, lines)
        lines.append(f"{_pad(indent + 1)}detail:")
        _render(node.detail, indent + 2, lines)
    elif isinstance(node, SelectGMDJ):
        lines.append(
            f"{pad}SelectGMDJ [{node.selection!r}] completion={node.rule!r}"
        )
        _render(node.gmdj, indent + 1, lines)
    elif isinstance(node, Apply):
        lines.append(f"{pad}Apply -> {node.output_name} [{node.subquery!r}]")
        _render(node.input, indent + 1, lines)
    else:
        lines.append(f"{pad}{node!r}")
