"""Table 1: mapping nested query constructs to GMDJ building blocks.

For one subquery leaf (with an already subquery-free inner predicate θ),
:func:`map_leaf` produces

* the θ-blocks ``(l_i, θ_i)`` the enclosing GMDJ must compute, and
* the replacement condition C over the fresh aggregate columns that takes
  the leaf's place in the enclosing predicate.

The six rows of the paper's Table 1:

=============================================  ===============================================
Nested form                                    GMDJ translation
=============================================  ===============================================
``σ[x φ π[y]σ[θ]R] B``                         ``σ[x φ v]    MD(B, R, single(y)→v, θ)``
``σ[x φ π[f(y)]σ[θ]R] B``                      ``σ[x φ fy]   MD(B, R, f(y)→fy, θ)``
``σ[x φ_some π[y]σ[θ]R] B``                    ``σ[cnt > 0]  MD(B, R, count(*)→cnt, θ ∧ x φ y)``
``σ[x φ_all π[y]σ[θ]R] B``                     ``σ[cnt1 = cnt2] MD(B, R, ((cnt1),(cnt2)), ((θ ∧ x φ y), θ))``
``σ[∃ σ[θ]R] B``                               ``σ[cnt > 0]  MD(B, R, count(*)→cnt, θ)``
``σ[∄ σ[θ]R] B``                               ``π[A] σ[cnt = 0] MD(B, R, count(*)→cnt, θ)``
=============================================  ===============================================

Counting is the central mechanism: every quantified/existential form turns
into a plain comparison over a ``count(*)``, which is trivially correct
under three-valued logic because only TRUE rows are counted (where-clause
truncation).  The first row is the second one's with the aggregate
``single(y)``: NULL on an empty range, ``y`` on one row, and a
:class:`~repro.errors.CardinalityError` where a base tuple has two —
SQL's scalar subquery, where the paper's ``cnt = 1`` assumed at most one
row.  A SELECT-list value (``B APPLY π[f(y)]σ[θ]R``) is that block with
no selection: ``MD(B, R, f(y)→name, θ)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra.aggregates import AggregateSpec, count_star
from repro.algebra.expressions import (
    TRUE,
    Column,
    Comparison,
    Expression,
    Literal,
    conjoin,
)
from repro.algebra.nested import (
    Apply,
    Exists,
    QuantifiedComparison,
    ScalarComparison,
    SubqueryPredicate,
)
from repro.errors import TranslationError
from repro.gmdj.operator import ThetaBlock


class NameGenerator:
    """Fresh internal attribute names for counts and aggregates."""

    def __init__(self, prefix: str = "__q"):
        self._prefix = prefix
        self._counter = 0

    def fresh(self, kind: str) -> str:
        self._counter += 1
        return f"{self._prefix}{kind}{self._counter}"


@dataclass
class LeafMapping:
    """Output of :func:`map_leaf` for one subquery predicate."""

    blocks: list[ThetaBlock]
    replacement: Expression  # the condition C over the fresh columns
    output_names: list[str]  # fresh columns introduced (to project away)


def map_leaf(
    leaf: SubqueryPredicate | Apply,
    inner_condition: Expression,
    names: NameGenerator,
) -> LeafMapping:
    """Apply the Table 1 row matching ``leaf`` (an Apply's value block
    replaces nothing: its condition is TRUE).

    ``inner_condition`` is the subquery's predicate with any nested
    subqueries already replaced by count conditions (Theorem 3.2) — i.e.
    it is an ordinary, subquery-free predicate whose references span the
    subquery source, the enclosing base, and possibly further-out scopes
    (the non-neighboring case, resolved later by push-down).
    """
    if isinstance(leaf, Exists):
        name = names.fresh("cnt")
        block = ThetaBlock([count_star(name)], inner_condition)
        if leaf.negated:
            replacement = Comparison("=", Column(name), Literal(0))
        else:
            replacement = Comparison(">", Column(name), Literal(0))
        return LeafMapping([block], replacement, [name])

    if isinstance(leaf, (ScalarComparison, Apply)):
        aggregate = leaf.subquery.scalar_aggregate
        if isinstance(leaf, Apply):
            name, replacement = leaf.output_name, TRUE
        else:
            name = names.fresh("agg")
            replacement = Comparison(leaf.op, leaf.outer, Column(name))
        spec = AggregateSpec(aggregate.function, aggregate.argument, name,
                             aggregate.distinct)
        return LeafMapping([ThetaBlock([spec], inner_condition)],
                           replacement, [name])

    if isinstance(leaf, QuantifiedComparison):
        subquery = leaf.subquery
        if subquery.item is None:
            raise TranslationError("quantified comparison needs a selected item")
        comparison = Comparison(leaf.op, leaf.outer, subquery.item)
        if leaf.quantifier == "some":
            name = names.fresh("cnt")
            block = ThetaBlock(
                [count_star(name)], conjoin([inner_condition, comparison])
            )
            replacement = Comparison(">", Column(name), Literal(0))
            return LeafMapping([block], replacement, [name])
        # ALL: cnt1 counts θ ∧ φ, cnt2 counts θ; equal counts ⟺ every
        # θ-row satisfies φ (and the empty range passes — footnote 2).
        name1 = names.fresh("cnt")
        name2 = names.fresh("cnt")
        restrictive = ThetaBlock(
            [count_star(name1)], conjoin([inner_condition, comparison])
        )
        weak = ThetaBlock([count_star(name2)], inner_condition)
        replacement = Comparison("=", Column(name1), Column(name2))
        return LeafMapping([restrictive, weak], replacement, [name1, name2])

    raise TranslationError(f"no Table 1 rule for {leaf!r}")
