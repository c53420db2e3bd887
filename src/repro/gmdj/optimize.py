"""The GMDJ optimizer: coalescing + completion fusion (Section 4).

:func:`optimize_plan` is the entry point used by the query engine's
``gmdj_optimized`` strategy.  It applies, in order:

1. **Coalescing** (Proposition 4.1) — stacked GMDJs over the same detail
   table merge into one; base-level selections are pulled up when that
   exposes a merge (Example 4.1).
2. **Completion fusion** (Theorems 4.1/4.2) — a selection sitting on top
   of a GMDJ whose conjuncts are recognizable count conditions is fused
   into a :class:`~repro.gmdj.evaluate.SelectGMDJ` carrying a
   :class:`~repro.gmdj.completion.CompletionRule`, letting the evaluator
   retire base tuples mid-scan.

Both steps are independently switchable so the ablation benchmarks can
measure their contributions separately.
"""

from __future__ import annotations

from typing import Sequence

from repro.algebra.operators import Operator, Project, ProjectItem, Select
from repro.algebra.rewrite import transform_bottom_up
from repro.gmdj.coalesce import coalesce_plan
from repro.gmdj.completion import derive_completion_rule
from repro.gmdj.evaluate import SelectGMDJ
from repro.gmdj.operator import GMDJ
from repro.storage.catalog import Catalog


def _items_reference_aggregates(items: Sequence, gmdj: GMDJ) -> bool:
    """True when any projection item reads a GMDJ aggregate output."""
    output_names = set(gmdj.output_names())
    for item in items:
        resolved = ProjectItem.of(item)
        for ref in resolved.expression.references():
            if ref in output_names or ref.rpartition(".")[2] in output_names:
                return True
    return False


def fuse_completion(plan: Operator) -> Operator:
    """Fuse σ-over-GMDJ patterns into completion-aware SelectGMDJ nodes.

    Matching is top-down so that ``Project(Select(GMDJ))`` is recognized as
    a unit before the inner ``Select(GMDJ)`` is consumed — the enclosing
    projection is what licenses assurance (Theorem 4.1 requires the
    aggregates to be projected away).
    """
    from repro.algebra.rewrite import map_children
    from repro.obs.tracer import span

    fusions = 0

    def walk(node: Operator) -> Operator:
        nonlocal fusions
        if (
            isinstance(node, Project)
            and isinstance(node.child, Select)
            and isinstance(node.child.child, GMDJ)
        ):
            gmdj = node.child.child
            aggregates_projected = not _items_reference_aggregates(
                node.items, gmdj
            )
            rule = derive_completion_rule(
                node.child.predicate, gmdj, aggregates_projected
            )
            if rule.useful:
                fusions += 1
                fused = SelectGMDJ(
                    map_children(gmdj, walk), node.child.predicate, rule
                )
                return Project(fused, node.items, node.distinct)
            return map_children(node, walk)
        if isinstance(node, Select) and isinstance(node.child, GMDJ):
            rule = derive_completion_rule(
                node.predicate, node.child, aggregates_projected=False
            )
            if rule.useful:
                fusions += 1
                return SelectGMDJ(
                    map_children(node.child, walk), node.predicate, rule
                )
            return map_children(node, walk)
        return map_children(node, walk)

    with span("fuse_completion", kind="optimize") as sp:
        fused_plan = walk(plan)
        sp.set(fusions=fusions)
        return fused_plan


def optimize_plan(plan: Operator, coalesce: bool = True,
                  completion: bool = True, fold_constants: bool = True,
                  push_selections: bool = True,
                  catalog: Catalog | None = None) -> Operator:
    """Apply the Section 4 optimizations to a translated GMDJ plan.

    Constant folding runs first so the pattern matchers (and the
    completion-rule parser in particular) see normalized conditions;
    selection push-down runs after coalescing (the two move different
    conjunct classes) and before completion fusion.
    """
    from repro.obs.tracer import span

    with span("optimize", kind="optimize", coalesce=coalesce,
              completion=completion):
        if fold_constants:
            from repro.algebra.simplify import simplify_plan

            plan = simplify_plan(plan)
        if coalesce:
            plan = coalesce_plan(plan)
        if push_selections and catalog is not None:
            plan = push_base_selections(plan, catalog)
        if completion:
            plan = fuse_completion(plan)
        return plan


def push_base_selections(plan: Operator, catalog: Catalog) -> Operator:
    """Commute base-only selection conjuncts below GMDJs.

    The paper notes the GMDJ "can commute with projections, selections,
    joins" — for selections the sound direction is::

        σ[p](MD(B, R, l, θ))  =  MD(σ[p](B), R, l, θ)

    whenever ``p`` references only B's attributes (and none of the GMDJ's
    aggregate outputs): output rows map 1:1 onto base rows and removing
    base rows never changes another row's aggregates.  Pushing shrinks
    the base before the detail scan (fewer hash entries, fewer
    scan-partition candidates).  Mixed selections are split: base-only
    conjuncts sink, the rest (typically the count conditions) stay above
    for completion fusion.  A GMDJ holding ``single`` keeps its base: a
    base row the selection drops may be the one that raises.
    """
    from repro.algebra.expressions import conjoin, conjuncts_of
    from repro.algebra.rewrite import transform_bottom_up

    def step(node: Operator) -> Operator:
        if not (isinstance(node, Select) and isinstance(node.child, GMDJ)) \
                or node.child.holds_single:
            return node
        gmdj = node.child
        base_schema = gmdj.base.schema(catalog)
        output_names = set(gmdj.output_names())
        sinkable = []
        kept = []
        for conjunct in conjuncts_of(node.predicate):
            refs = conjunct.references()
            touches_outputs = any(
                ref in output_names or ref.rpartition(".")[2] in output_names
                for ref in refs
            )
            if refs and not touches_outputs and all(
                base_schema.has(ref) for ref in refs
            ):
                sinkable.append(conjunct)
            else:
                kept.append(conjunct)
        if not sinkable:
            return node
        pushed = GMDJ(
            Select(gmdj.base, conjoin(sinkable)), gmdj.detail, gmdj.blocks
        )
        if kept:
            return Select(pushed, conjoin(kept))
        return pushed

    return transform_bottom_up(plan, step)
