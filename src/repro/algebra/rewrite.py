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

from repro.algebra.expressions import Column, Expression, map_columns
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

    def qualified(node: Column) -> Expression:
        if schema.has(node.reference):
            full = schema.field_of(node.reference).full_name
            if full != node.reference:
                return Column(full)
        return node

    return map_columns(expression, qualified)


def requalify_expression(
    expression: Expression, old_qualifier: str, new_qualifier: str
) -> Expression:
    """Rewrite ``old.x`` references to ``new.x`` throughout an expression."""
    return map_columns(expression, lambda node: (
        node.requalified(new_qualifier)
        if node.qualifier == old_qualifier else node))
