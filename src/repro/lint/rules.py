"""The W101 quantifier rule, and the null-safe link matcher absint reads.

* :func:`check_quantifier_nullability` — **W101**, the Table 1
  ALL/NOT-IN hazard: a universal quantifier over a column whose stored
  data currently holds NULLs has counter-intuitive SQL semantics (one
  NULL poisons ``NOT IN`` into an empty result).  The GMDJ count-pair
  translation reproduces SQL exactly, so this is a warning about the
  query, not the plan.
* :func:`match_null_safe_equal` — recognizes the translator's null-safe
  identity link ``a = b OR (a IS NULL AND b IS NULL)`` (Theorems
  3.3/3.4), which :mod:`repro.lint.absint` classifies as an equality.
  Whether the translator emits that form is checked by the corpus case
  ``null_identity_link`` and the fuzz smoke, not by a lint rule.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.algebra.expressions import (
    And,
    Column,
    Comparison,
    Expression,
    IsNull,
    Or,
)
from repro.algebra.nested import QuantifiedComparison

if TYPE_CHECKING:
    from repro.lint.infer import Frame, PlanTyper


def match_null_safe_equal(
    expression: Expression,
) -> tuple[Column, Column] | None:
    """Match ``a = b OR (a IS NULL AND b IS NULL)`` over two columns."""
    if not isinstance(expression, Or):
        return None
    eq, null_pair = expression.left, expression.right
    if not (isinstance(eq, Comparison) and eq.op == "="
            and isinstance(eq.left, Column) and isinstance(eq.right, Column)):
        return None
    if not isinstance(null_pair, And):
        return None
    left_null, right_null = null_pair.left, null_pair.right
    if not (isinstance(left_null, IsNull) and not left_null.negated
            and isinstance(right_null, IsNull) and not right_null.negated):
        return None
    if not (isinstance(left_null.operand, Column)
            and isinstance(right_null.operand, Column)):
        return None
    expected = {eq.left.reference, eq.right.reference}
    actual = {left_null.operand.reference, right_null.operand.reference}
    if expected != actual:
        return None
    return eq.left, eq.right


def check_quantifier_nullability(
    leaf: QuantifiedComparison,
    outer_frames: list[Frame],
    inner_frames: list[Frame],
    typer: PlanTyper,
    path: str,
) -> None:
    """W101: ALL / NOT IN over data that currently contains NULLs."""
    if leaf.quantifier != "all":
        return
    item = leaf.subquery.item
    nullable_sides = []
    if item is not None and typer.column_possibly_null(item, inner_frames):
        nullable_sides.append(f"subquery item {item!r}")
    if typer.column_possibly_null(leaf.outer, outer_frames):
        nullable_sides.append(f"outer operand {leaf.outer!r}")
    if not nullable_sides:
        return
    form = "NOT IN" if leaf.op == "<>" else f"{leaf.op} ALL"
    report_hint = (
        "a single NULL makes the quantifier UNKNOWN for otherwise "
        "non-matching rows; filter NULLs explicitly (IS NOT NULL) if "
        "two-valued behaviour is intended"
    )
    typer.report.add(
        "W101",
        f"{form} ranges over NULL-bearing data ({'; '.join(nullable_sides)})",
        path,
        hint=report_hint,
    )
