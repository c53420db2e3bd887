"""Cross-query GMDJ scan sharing — Prop. 4.1 lifted to the workload.

Proposition 4.1 coalesces the subqueries of *one* query into a single
GMDJ over one detail scan.  This module applies the same merge across a
*batch* of translated plans (the shared-subexpression multi-query
optimization of Roy et al. and Kathuria & Sudarshan): plans whose single
GMDJ reads the same stored detail table over the same base-values
relation are *share-compatible*; their θ-blocks are requalified onto one
shared detail alias, deduplicated, and packed into one multi-consumer
GMDJ that is evaluated with a single detail scan.  Each consumer then
projects its own aggregate columns back out of the shared result and
grafts them into its residual plan as a :class:`TableValue`.

The three stages are deliberately separable (each is unit-testable, and
:mod:`repro.engine.mqo` orchestrates them per batch):

* :func:`fingerprint_plan` — is this plan shareable, and under which
  :class:`ShareFingerprint`?
* :func:`merge_group` — fuse the candidates of one fingerprint into a
  :class:`SharedGMDJPlan` (one GMDJ, per-consumer output routing);
* :func:`split_result` / :func:`graft_consumer` — route the shared
  result back into each consumer's residual plan.

Soundness notes:

* compatibility requires the *rendered* base subtrees to be identical
  (same relation, same selection, same aliases), so the shared GMDJ
  emits exactly the base rows every consumer expects, in base order;
* a fused :class:`~repro.gmdj.evaluate.SelectGMDJ` consumer is unfused
  to ``σ[selection](MD(...))`` over exact aggregates — row-identical to
  the completion-fused form (doomed rows fail the selection anyway, and
  assured rows' partial aggregates are only ever produced under an
  enclosing projection that discards them);
* θ-blocks are deduplicated by their *entire* requalified condition
  (:func:`block_key`); dropping base-only conjuncts from the key would
  over-merge distinct subqueries — the seeded-bug test in
  ``tests/test_mqo_differential.py`` proves the differential suite
  catches exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra.aggregates import AggregateSpec
from repro.algebra.expressions import Expression
from repro.algebra.operators import Operator, ScanTable, Select, TableValue
from repro.algebra.printer import explain as render_plan
from repro.algebra.rewrite import transform_bottom_up
from repro.gmdj.coalesce import _block_requalified, _detail_table
from repro.gmdj.evaluate import SelectGMDJ
from repro.gmdj.operator import GMDJ, ThetaBlock
from repro.storage.columnar import cached_columnar, is_encoded, relation_of
from repro.storage.relation import Relation
from repro.storage.schema import Schema

__all__ = [
    "ShareCandidate",
    "ShareFingerprint",
    "SharedGMDJPlan",
    "ConsumerSlot",
    "block_key",
    "fingerprint_plan",
    "graft_consumer",
    "merge_group",
    "split_result",
]


@dataclass(frozen=True)
class ShareFingerprint:
    """What two plans must agree on to share one detail scan."""

    detail_table: str
    base_key: str

    def label(self) -> str:
        return f"{self.detail_table}:{hash(self.base_key) & 0xFFFFFF:06x}"


@dataclass
class ShareCandidate:
    """One shareable plan: its single GMDJ and how it sits in the plan."""

    plan: Operator
    node: Operator            # the GMDJ or SelectGMDJ node inside ``plan``
    gmdj: GMDJ
    selection: Expression | None  # SelectGMDJ's predicate, when unfused
    detail_alias: str
    fingerprint: ShareFingerprint


@dataclass
class ConsumerSlot:
    """One consumer's routing through the shared GMDJ's output columns.

    ``outputs`` pairs each shared aggregate column with the output name
    the consumer's original GMDJ produced, in the consumer's original
    block/spec order — so the split result's schema matches the
    consumer's residual plan exactly.
    """

    candidate: ShareCandidate
    outputs: list[tuple[str, str]]


@dataclass
class SharedGMDJPlan:
    """One share group fused into a single multi-consumer GMDJ."""

    gmdj: GMDJ
    detail_table: str
    slots: list[ConsumerSlot]
    consumer_blocks: int    # θ-blocks the consumers brought in total
    shared_blocks: int      # distinct θ-blocks after deduplication


def _gmdj_like_nodes(plan: Operator) -> list[Operator]:
    """Every GMDJ-bearing node, counting a fused SelectGMDJ as one."""
    found: list[Operator] = []

    def visit(node: Operator) -> None:
        if isinstance(node, SelectGMDJ):
            found.append(node)
            visit(node.gmdj.base)
            visit(node.gmdj.detail)
            return
        if isinstance(node, GMDJ):
            found.append(node)
        for child in node.children():
            visit(child)

    visit(plan)
    return found


def fingerprint_plan(plan: Operator) -> ShareCandidate | None:
    """Classify a translated plan for sharing, or None when unshareable.

    Shareable means: exactly one GMDJ in the tree (a fused SelectGMDJ
    counts as one) whose detail is a plain stored-table scan.  The
    fingerprint is the detail table plus the *rendering* of the base
    subtree — textual identity is the same normalization the plan cache
    keys on, and it implies the two bases evaluate to the same relation
    in the same order under one catalog snapshot.
    """
    nodes = _gmdj_like_nodes(plan)
    if len(nodes) != 1:
        return None
    node = nodes[0]
    selection: Expression | None = None
    gmdj = node
    if isinstance(node, SelectGMDJ):
        gmdj = node.gmdj
        selection = node.selection
    detail = _detail_table(gmdj.detail)
    if detail is None:
        return None
    table, alias = detail
    return ShareCandidate(
        plan=plan,
        node=node,
        gmdj=gmdj,
        selection=selection,
        detail_alias=alias,
        fingerprint=ShareFingerprint(table, render_plan(gmdj.base)),
    )


def block_key(block: ThetaBlock) -> str:
    """The identity under which requalified θ-blocks deduplicate.

    Two consumers' blocks may share aggregate machinery only when their
    *entire* conditions agree — including conjuncts that reference only
    the base relation.  (A key that strips base-only conjuncts would
    route one consumer's aggregates to another consumer's θ; the seeded
    bug test monkeypatches this function to prove the differential
    suite catches that.)
    """
    return repr(block.condition)


def _spec_key(spec: AggregateSpec) -> tuple:
    return (spec.function, repr(spec.argument), spec.distinct)


def _fresh_alias(candidates: list[ShareCandidate], table: str) -> str:
    """A detail alias no candidate references for anything else.

    Requalifying every consumer's θ-blocks onto one alias is only sound
    if that alias cannot capture a non-detail reference, so keep
    suffixing until it collides with nothing in any candidate plan.
    """
    taken: set[str] = set()
    for candidate in candidates:
        for reference in _plan_qualifiers(candidate.plan):
            taken.add(reference)
    alias = f"mqo_{table.lower()}"
    suffix = 0
    while alias in taken:
        suffix += 1
        alias = f"mqo_{table.lower()}_{suffix}"
    return alias


def _plan_qualifiers(plan: Operator) -> set[str]:
    """Every qualifier (``q`` of ``q.attr``) appearing in a plan."""
    qualifiers: set[str] = set()

    def from_expression(expression: Expression) -> None:
        for reference in expression.references():
            qualifier, dot, _ = reference.rpartition(".")
            if dot:
                qualifiers.add(qualifier)

    def visit(node: Operator) -> None:
        if isinstance(node, ScanTable):
            qualifiers.add(node.alias or node.table_name)
        if isinstance(node, SelectGMDJ):
            from_expression(node.selection)
            visit(node.gmdj)
            return
        if isinstance(node, GMDJ):
            for block in node.blocks:
                from_expression(block.condition)
                for spec in block.aggregates:
                    if spec.argument is not None:
                        from_expression(spec.argument)
        predicate = getattr(node, "predicate", None)
        if isinstance(predicate, Expression):
            from_expression(predicate)
        for child in node.children():
            visit(child)

    visit(plan)
    return qualifiers


def merge_group(candidates: list[ShareCandidate]) -> SharedGMDJPlan:
    """Fuse share-compatible candidates into one multi-consumer GMDJ.

    Every consumer's θ-blocks are requalified from its private detail
    alias onto one fresh shared alias; blocks with identical conditions
    (:func:`block_key`) merge, and identical aggregate specs within a
    merged block are computed once.  Shared aggregate columns get fresh
    ``mqo_N`` names (consumers' original names may collide); each
    :class:`ConsumerSlot` records the shared→original name routing.
    """
    first = candidates[0].fingerprint
    table = first.detail_table
    alias = _fresh_alias(candidates, table)
    # key -> (condition, spec_key -> shared name, shared specs)
    merged: dict[str, tuple[Expression, dict[tuple, str], list[AggregateSpec]]] = {}
    order: list[str] = []
    slots: list[ConsumerSlot] = []
    fresh = 0
    for candidate in candidates:
        outputs: list[tuple[str, str]] = []
        for block in candidate.gmdj.blocks:
            requalified = _block_requalified(
                block, candidate.detail_alias, alias
            )
            key = block_key(requalified)
            if key not in merged:
                merged[key] = (requalified.condition, {}, [])
                order.append(key)
            _, spec_names, shared_specs = merged[key]
            for original, spec in zip(block.aggregates, requalified.aggregates):
                spec_key = _spec_key(spec)
                shared_name = spec_names.get(spec_key)
                if shared_name is None:
                    shared_name = f"mqo_{fresh}"
                    fresh += 1
                    spec_names[spec_key] = shared_name
                    shared_specs.append(AggregateSpec(
                        spec.function, spec.argument, shared_name,
                        spec.distinct,
                    ))
                outputs.append((shared_name, original.output_name))
        slots.append(ConsumerSlot(candidate=candidate, outputs=outputs))
    blocks = [
        ThetaBlock(list(merged[key][2]), merged[key][0]) for key in order
    ]
    shared = GMDJ(
        base=candidates[0].gmdj.base,
        detail=ScanTable(table, alias),
        blocks=blocks,
    )
    return SharedGMDJPlan(
        gmdj=shared,
        detail_table=table,
        slots=slots,
        consumer_blocks=sum(len(c.gmdj.blocks) for c in candidates),
        shared_blocks=len(blocks),
    )


def split_result(
    shared_result: Relation,
    slot: ConsumerSlot,
    base_width: int,
    consumer_schema: Schema,
) -> Relation:
    """Project one consumer's GMDJ output back out of the shared result.

    Base columns come first in both schemas (the shared GMDJ and every
    consumer GMDJ extend the *same* base schema), so the split keeps the
    base prefix and gathers the consumer's aggregate columns in its
    original order, renamed back via the slot's routing.  Row order is
    preserved — the shared GMDJ emits one row per base tuple in base
    order, exactly as the consumer's own GMDJ would have.  The piece
    has the shared result's form: column picks of a column-backed one
    (the numpy kernel's), a row list of a row-backed one (the other
    kernels', a fragmenter's merge).
    """
    positions = [
        shared_result.schema.index_of(shared_name)
        for shared_name, _ in slot.outputs
    ]
    if is_encoded(shared_result):
        # The array kernel's result: the consumer's piece is those very
        # columns under its own schema — nothing is copied, no tuple
        # built; the residual's array operators read them as they are.
        columnar = cached_columnar(shared_result)
        return relation_of(
            consumer_schema,
            [columnar.columns[position]
             for position in [*range(base_width), *positions]],
            columnar.length,
        )
    rows = [
        tuple(row[:base_width]) + tuple(row[position] for position in positions)
        for row in shared_result.rows
    ]
    return Relation(consumer_schema, rows, validate=False)


def graft_consumer(slot: ConsumerSlot, consumer_result: Relation) -> Operator:
    """The consumer's residual plan with its GMDJ replaced by the result.

    The original GMDJ (or fused SelectGMDJ) node is swapped for a
    :class:`TableValue` holding the split relation; a fused consumer
    gets its completion selection re-applied as an ordinary ``Select``
    over the now-exact aggregates.
    """
    candidate = slot.candidate
    replacement: Operator = TableValue(consumer_result)
    if candidate.selection is not None:
        replacement = Select(replacement, candidate.selection)

    def step(node: Operator) -> Operator:
        return replacement if node is candidate.node else node

    return transform_bottom_up(candidate.plan, step)
