"""Coalescing of GMDJs (Proposition 4.1 of the paper).

A sequence of GMDJs over the same detail table, with mutually independent
conditions, collapses into a *single* GMDJ carrying all the (l, θ) blocks —
so a conjunction of n subqueries over one fact table is evaluated in one
scan of that table instead of n.  This is the optimization that turns
Example 3.2's three stacked GMDJs into Example 4.1's single GMDJ.

Two rewrites are provided:

* :func:`merge_stacked` — ``MD(MD(B, R, l1, θ1), R, l2, θ2)`` →
  ``MD(B, R, l1+l2, θ1+θ2)`` when both details scan the same table and the
  outer conditions do not read the inner aggregates.
* :func:`pull_up_base_selection` — ``MD(σ[C](X), R, l, θ)`` →
  ``σ[C](MD(X, R, l, θ))`` when θ does not reference the aggregate columns
  C selects on.  This is the "pushing up the selections" step of
  Example 4.1 that exposes further merging (and completion fusion).
"""

from __future__ import annotations

from repro.algebra.expressions import Expression
from repro.algebra.operators import Operator, ScanTable, Select
from repro.algebra.rewrite import requalify_expression
from repro.gmdj.operator import GMDJ, ThetaBlock


def _detail_table(operator: Operator) -> tuple[str, str] | None:
    """``(table, alias)`` when the operator is a plain aliased table scan."""
    if isinstance(operator, ScanTable):
        return operator.table_name, operator.alias or operator.table_name
    return None


def _references_any(expression: Expression, names: set[str]) -> bool:
    for ref in expression.references():
        if ref in names or ref.rpartition(".")[2] in names:
            return True
    return False


def _block_requalified(block: ThetaBlock, old: str, new: str) -> ThetaBlock:
    condition = requalify_expression(block.condition, old, new)
    aggregates = []
    for spec in block.aggregates:
        if spec.argument is None:
            aggregates.append(spec)
        else:
            from repro.algebra.aggregates import AggregateSpec

            aggregates.append(
                AggregateSpec(
                    spec.function,
                    requalify_expression(spec.argument, old, new),
                    spec.output_name,
                    spec.distinct,
                )
            )
    return ThetaBlock(aggregates, condition)


def merge_stacked(outer: GMDJ) -> GMDJ | None:
    """Collapse ``MD(MD(B, R→a1, ...), R→a2, ...)`` into one GMDJ.

    Returns the merged operator, or None when the rewrite does not apply:
    the base must itself be a GMDJ, both details must scan the same stored
    table, and the outer θs/aggregates must not read the inner GMDJ's
    aggregate outputs (Proposition 4.1's independence requirement).
    """
    inner = outer.base
    if not isinstance(inner, GMDJ):
        return None
    outer_detail = _detail_table(outer.detail)
    inner_detail = _detail_table(inner.detail)
    if outer_detail is None or inner_detail is None:
        return None
    if outer_detail[0] != inner_detail[0]:
        return None
    inner_outputs = set(inner.output_names())
    for block in outer.blocks:
        if _references_any(block.condition, inner_outputs):
            return None
        for spec in block.aggregates:
            if spec.argument is not None and _references_any(
                spec.argument, inner_outputs
            ):
                return None
    old_alias, new_alias = outer_detail[1], inner_detail[1]
    if old_alias == new_alias:
        moved = list(outer.blocks)
    else:
        moved = [
            _block_requalified(block, old_alias, new_alias)
            for block in outer.blocks
        ]
    return GMDJ(inner.base, inner.detail, list(inner.blocks) + moved)


def pull_up_base_selection(gmdj: GMDJ) -> Select | None:
    """Rewrite ``MD(σ[C](X), R, l, θ)`` to ``σ[C](MD(X, R, l, θ))``.

    Sound whenever θ (and the aggregate arguments) reference only
    attributes of X and R: the GMDJ computes per-base-tuple aggregates, so
    filtering base tuples before or after aggregation yields the same
    surviving rows.  Applying it trades extra aggregate work for the
    chance to coalesce scans — the planner only uses it when a merge
    follows.  A GMDJ holding ``single`` declines: more base rows could
    raise where fewer did not.
    """
    base = gmdj.base
    if not isinstance(base, Select) or gmdj.holds_single:
        return None
    lifted = GMDJ(base.child, gmdj.detail, gmdj.blocks)
    return Select(lifted, base.predicate)


def coalesce_plan(plan: Operator) -> Operator:
    """Exhaustively merge stacked GMDJs in a plan, pulling selections up
    when doing so enables a merge.  Returns the rewritten plan."""
    from repro.algebra.rewrite import transform_bottom_up
    from repro.obs.tracer import span

    merges = pull_ups = collapses = 0

    def step(node: Operator) -> Operator:
        nonlocal merges, pull_ups, collapses
        if isinstance(node, GMDJ):
            merged = merge_stacked(node)
            if merged is not None:
                merges += 1
                return merged
            if isinstance(node.base, Select):
                lifted = pull_up_base_selection(node)
                if lifted is not None and isinstance(lifted.child, GMDJ):
                    inner_merge = merge_stacked(lifted.child)
                    if inner_merge is not None:
                        merges += 1
                        pull_ups += 1
                        return Select(inner_merge, lifted.predicate)
        if isinstance(node, Select) and isinstance(node.child, Select):
            # Collapse stacked selections so completion sees one conjunction.
            collapses += 1
            inner = node.child
            return Select(inner.child, inner.predicate & node.predicate)
        return node

    with span("coalesce", kind="coalesce") as sp:
        rewritten = transform_bottom_up(plan, step)
        sp.set(merges=merges, pull_ups=pull_ups,
               select_collapses=collapses)
        return rewritten
