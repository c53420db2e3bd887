"""Base-table push-down rules (Theorems 3.3 and 3.4 of the paper).

These two equivalences let the translator handle *non-neighboring*
correlation predicates — predicates referencing a scope more than one
level out, which would otherwise leave a θ condition mentioning attributes
of neither B nor R (violating ``attr(θ) ⊆ B ∪ R``):

* **Theorem 3.3**: ``MD(B, R, l, θ)  =  MD(B, B ⋈_θ R, l, θ′)`` where θ′
  re-checks the base identity against the B-attributes now embedded in the
  detail tuples.
* **Theorem 3.4**: ``T ⋈_C MD(B, R, l, θ)  =  MD(T ⋈_C B, R, l, θ)``.

The translator uses Theorem 3.4 in the direction that *pushes the
outer-most base-values table down* into the base of an inner GMDJ
(Example 3.4: ``MD((User ⋈ Hours), Flow, l_F, θ_F)``), at the cost of one
join — the same number of joins a conventional join/outer-join unnesting
would need for a non-neighboring predicate of that depth.
"""

from __future__ import annotations

from typing import Sequence

from repro.algebra.expressions import (
    Column,
    Comparison,
    Expression,
    conjoin,
    map_columns,
)
from repro.algebra.operators import Join
from repro.gmdj.operator import GMDJ, ThetaBlock
from repro.storage.catalog import Catalog
from repro.storage.schema import Schema


def embed_base_in_detail(gmdj: GMDJ, catalog: Catalog) -> GMDJ:
    """Theorem 3.3: rewrite ``MD(B, R, l, θ)`` to ``MD(B, B ⋈_θ R, l, θ′)``.

    The new detail relation is the θ-join of B and R; since a base tuple's
    range must only contain detail tuples joined with *that* tuple, θ′
    adds equality on every base attribute between the GMDJ's base side and
    the base-copy embedded in the detail side.  To keep attribute
    references unambiguous the embedded copy is re-qualified.
    """
    from repro.obs.tracer import span

    with span("embed_base_in_detail", kind="pushdown", rule="thm-3.3") as sp:
        base_schema = gmdj.base.schema(catalog)
        embedded_qualifier = _fresh_qualifier(base_schema, catalog, gmdj)
        sp.set(qualifier=embedded_qualifier)
        from repro.algebra.operators import Rename

        embedded_base = Rename(gmdj.base, embedded_qualifier)
        embedded_schema = embedded_base.schema(catalog)
        join_condition = _requalify_free(
            gmdj.blocks, base_schema, embedded_qualifier
        )
        detail = Join(embedded_base, gmdj.detail, join_condition, kind="inner")
        identity = conjoin(
            Comparison(
                "=",
                Column(field.full_name),
                Column(f"{embedded_qualifier}.{field.name}"),
            )
            for field in base_schema.fields
        )
        blocks = [
            ThetaBlock(
                block.aggregates,
                _rewrite_block_condition(
                    block.condition, base_schema, embedded_qualifier
                )
                & identity,
            )
            for block in gmdj.blocks
        ]
        return GMDJ(gmdj.base, detail, blocks)


def _fresh_qualifier(base_schema: Schema, catalog: Catalog, gmdj: GMDJ) -> str:
    taken = set(base_schema.qualifiers())
    taken |= set(gmdj.detail.schema(catalog).qualifiers())
    counter = 0
    while True:
        candidate = f"__b{counter}"
        if candidate not in taken:
            return candidate
        counter += 1


def _requalify_free(blocks: Sequence[ThetaBlock], base_schema: Schema,
                    qualifier: str) -> Expression:
    """The join condition of Theorem 3.3 is the disjunction-free part of θ
    restricted to what can be checked at join time; we simply join on the
    conjunction of all block conditions re-pointed at the embedded copy.

    Using the OR of the block conditions would be tighter, but any
    superset join is correct because θ′ re-checks each block condition —
    we use the first block's condition as the join filter and let θ′ do
    exact work, which keeps the join from exploding while staying sound.
    """
    return _rewrite_block_condition(blocks[0].condition, base_schema, qualifier)


def _rewrite_block_condition(
    condition: Expression, base_schema: Schema, qualifier: str
) -> Expression:
    """Re-point base-side references in θ at the embedded base copy."""

    def repointed(node: Column) -> Expression:
        if base_schema.has(node.reference):
            field = base_schema.field_of(node.reference)
            return Column(f"{qualifier}.{field.name}")
        return node

    return map_columns(condition, repointed)


def push_join_into_base(join: Join) -> GMDJ:
    """Theorem 3.4: ``T ⋈_C MD(B, R, l, θ)  →  MD(T ⋈_C B, R, l, θ)``.

    Requires the join condition C to reference only T and B attributes
    (not the GMDJ's aggregate outputs) — the caller is responsible for
    checking this; the translator only generates conforming joins.
    """
    from repro.obs.tracer import span

    gmdj = join.right
    if not isinstance(gmdj, GMDJ):
        raise TypeError("push_join_into_base expects a Join over a GMDJ")
    with span("push_join_into_base", kind="pushdown", rule="thm-3.4",
              join_kind=join.kind):
        new_base = Join(join.left, gmdj.base, join.condition, kind=join.kind,
                        method=join.method)
        return GMDJ(new_base, gmdj.detail, gmdj.blocks)


def pull_join_out_of_base(gmdj: GMDJ) -> Join:
    """Theorem 3.4 read right-to-left: ``MD(T ⋈_C B, R, l, θ)`` back to
    ``T ⋈_C MD(B, R, l, θ)``, available when θ does not reference T.

    Provided for completeness and for the equivalence tests; the planner
    prefers the pushed-down form (the GMDJ base stays small).
    """
    base = gmdj.base
    if not isinstance(base, Join):
        raise TypeError("pull_join_out_of_base expects a GMDJ over a Join base")
    inner = GMDJ(base.right, gmdj.detail, gmdj.blocks)
    return Join(base.left, inner, base.condition, kind=base.kind,
                method=base.method)
