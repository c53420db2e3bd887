"""Generic plan-tree rewriting helpers.

Operators are plain dataclasses whose child links use different field names
(``child``, ``left``/``right``, ``base``/``detail``, ``gmdj``).  The helpers
here rebuild nodes with transformed children and compute structural
fingerprints, which the GMDJ optimizer uses to detect "same underlying
plan" (Proposition 4.1 requires the coalesced subqueries to range over the
same table).
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Any, Callable

from repro.algebra.expressions import (
    And,
    Arithmetic,
    Column,
    Comparison,
    Expression,
    IsNull,
    Not,
    Or,
)
from repro.algebra.operators import Operator
from repro.storage.schema import Schema

_CHILD_FIELDS = ("child", "left", "right", "base", "detail", "gmdj",
                 "source", "input")


@functools.cache
def _child_names(cls: type) -> tuple[str, ...]:
    """The fields of ``cls`` that may hold a child (none when it is not
    a dataclass), read once per class: a walk reflects on no node."""
    if not dataclasses.is_dataclass(cls):
        return ()
    return tuple(field.name for field in dataclasses.fields(cls)
                 if field.name in _CHILD_FIELDS)


def map_children(node: Any, transform: Callable) -> Any:
    """Rebuild ``node`` with ``transform`` applied to operator-valued fields."""
    changes = {}
    for name in _child_names(type(node)):
        value = getattr(node, name)
        if value is None or not _is_operator_like(value):
            continue
        replacement = transform(value)
        if replacement is not value:
            changes[name] = replacement
    if not changes:
        return node
    return dataclasses.replace(node, **changes)


def _is_operator_like(value: Any) -> bool:
    return isinstance(value, Operator) or hasattr(value, "evaluate")


def transform_bottom_up(node: Any, transform: Callable) -> Any:
    """Apply ``transform`` to every node, children first, until each node
    reaches a local fixpoint (the transform keeps being re-applied to its
    own output while it changes something)."""
    rebuilt = map_children(node, lambda child: transform_bottom_up(child, transform))
    while True:
        replacement = transform(rebuilt)
        if replacement is rebuilt:
            return rebuilt
        rebuilt = replacement


def plan_fingerprint(node: Any) -> str:
    """A structural identity string for an operator tree.

    Two plans with equal fingerprints compute identical relations (the
    converse does not hold).  ``repr`` of the dataclass tree is stable and
    sufficient for the coalescing check.
    """
    return repr(node)


def qualify_references(expression: Expression, schema: Schema) -> Expression:
    """Rewrite bare references resolvable in ``schema`` to full names.

    SQL scoping resolves a bare column name in the innermost block that
    declares it.  When a rewrite (GMDJ translation, join unnesting,
    APPLY removal) lifts a subquery-local expression into a condition
    over a *combined* schema, its bare names could suddenly match outer
    attributes too; qualifying them against their home schema first
    preserves the original resolution.  Already-qualified and
    non-resolving references pass through untouched.
    """

    def walk(node: Expression) -> Expression:
        if isinstance(node, Column):
            if schema.has(node.reference):
                full = schema.field_of(node.reference).full_name
                if full != node.reference:
                    return Column(full)
            return node
        if isinstance(node, Comparison):
            return Comparison(node.op, walk(node.left), walk(node.right))
        if isinstance(node, And):
            return And(walk(node.left), walk(node.right))
        if isinstance(node, Or):
            return Or(walk(node.left), walk(node.right))
        if isinstance(node, Not):
            return Not(walk(node.operand))
        if isinstance(node, Arithmetic):
            return Arithmetic(node.op, walk(node.left), walk(node.right))
        if isinstance(node, IsNull):
            return IsNull(walk(node.operand), node.negated)
        return node

    return walk(expression)


def requalify_expression(
    expression: Expression, old_qualifier: str, new_qualifier: str
) -> Expression:
    """Rewrite ``old.x`` references to ``new.x`` throughout an expression."""
    if isinstance(expression, Column):
        if expression.qualifier == old_qualifier:
            return expression.requalified(new_qualifier)
        return expression
    if isinstance(expression, Comparison):
        return Comparison(
            expression.op,
            requalify_expression(expression.left, old_qualifier, new_qualifier),
            requalify_expression(expression.right, old_qualifier, new_qualifier),
        )
    if isinstance(expression, And):
        return And(
            requalify_expression(expression.left, old_qualifier, new_qualifier),
            requalify_expression(expression.right, old_qualifier, new_qualifier),
        )
    if isinstance(expression, Or):
        return Or(
            requalify_expression(expression.left, old_qualifier, new_qualifier),
            requalify_expression(expression.right, old_qualifier, new_qualifier),
        )
    if isinstance(expression, Not):
        return Not(
            requalify_expression(expression.operand, old_qualifier, new_qualifier)
        )
    if isinstance(expression, Arithmetic):
        return Arithmetic(
            expression.op,
            requalify_expression(expression.left, old_qualifier, new_qualifier),
            requalify_expression(expression.right, old_qualifier, new_qualifier),
        )
    if isinstance(expression, IsNull):
        return IsNull(
            requalify_expression(expression.operand, old_qualifier, new_qualifier),
            expression.negated,
        )
    return expression
