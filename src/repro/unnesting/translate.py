"""Algorithm SubqueryToGMDJ (Theorem 3.5): nested expressions → GMDJ plans.

The translator turns a :class:`~repro.algebra.nested.NestedSelect` — whose
predicate may contain arbitrarily nested subquery predicates — into a flat
algebra plan whose only exotic operator is the GMDJ:

1. **Normalize** — push negations to the atoms and eliminate ¬ in front of
   subquery predicates (:mod:`repro.unnesting.normalize`).
2. **Iterate** — replace each subquery leaf by a condition over fresh
   count/aggregate columns (Table 1, :mod:`repro.unnesting.rules`),
   stacking one GMDJ onto the base per leaf.  Leaves whose subqueries are
   themselves nested are flattened first, so the inner GMDJ extends the
   *detail* relation of the outer one (Theorem 3.2).  A SELECT-list
   :class:`~repro.algebra.nested.Apply` is one such leaf over its
   input, whose GMDJ adds the value column.
3. **Push down** — when a θ condition references a scope more than one
   level out (a *non-neighboring* correlation predicate), the referenced
   base table is joined into the base of the GMDJ where the reference
   occurs and re-linked upward with identity conjuncts level by level
   (Theorems 3.3/3.4; Example 3.4).  Exactly one join per level of
   non-neighboring depth is introduced — the same number a conventional
   join/outer-join unnesting would need.
4. **Project** — the fresh internal columns are projected away so the
   result schema equals the original query's schema.

The output is an ordinary operator tree; pass it through
:func:`repro.gmdj.optimize.optimize_plan` for the Section 4 optimizations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra.expressions import (
    And,
    Column,
    Comparison,
    Expression,
    Not,
    Or,
    conjoin,
    map_columns,
)
from repro.algebra.expressions import TRUE
from repro.algebra.nested import Apply, NestedSelect, SubqueryPredicate
from repro.algebra.operators import (
    Distinct,
    Join,
    Operator,
    Project,
    Rename,
    Select,
)
from repro.algebra.rewrite import map_children
from repro.errors import TranslationError
from repro.gmdj.operator import GMDJ, ThetaBlock
from repro.storage.catalog import Catalog
from repro.storage.schema import Schema
from repro.unnesting.normalize import push_down_negations
from repro.unnesting.rules import NameGenerator, map_leaf


@dataclass
class _ContextLevel:
    """One enclosing query block: its (original) source and schema."""

    source: Operator
    schema: Schema


@dataclass
class _Pending:
    """A pushed-down base copy awaiting an identity link at ``level``."""

    level: int
    qualifier: str
    schema: Schema
    original: Operator


class _Translator:
    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self.names = NameGenerator()
        self._push_counter = 0

    # -- public ---------------------------------------------------------------

    def translate_operator(self, operator: Operator) -> Operator:
        """Replace every NestedSelect and Apply bottom-up."""
        rebuilt = map_children(operator, self.translate_operator)
        if isinstance(rebuilt, NestedSelect):
            return self._translate_nested_select(rebuilt)
        if isinstance(rebuilt, Apply):
            return self._translate_apply(rebuilt)
        return rebuilt

    # -- core -----------------------------------------------------------------

    def _translate_apply(self, apply: Apply) -> Operator:
        """The Apply's subquery is one leaf over its input: the GMDJ it
        stacks there carries the value column."""
        schema = apply.input.schema(self.catalog)
        state = _block_state(apply.input, schema)
        self._process_leaf(apply, state, _ContextLevel(apply.input, schema),
                           context=[])
        return state["source"]

    def _translate_nested_select(self, nested: NestedSelect) -> Operator:
        child = self.translate_operator(nested.child)
        child_schema = child.schema(self.catalog)
        predicate = push_down_negations(nested.predicate)
        source, flat_predicate, pendings = self._desubquery(
            child, child_schema, predicate, context=[]
        )
        if pendings:
            levels = sorted({p.level for p in pendings})
            raise TranslationError(
                f"unresolved outer references target scopes {levels} beyond "
                f"the outermost query block"
            )
        selected = Select(source, flat_predicate)
        if source is child:
            return selected
        return Project(selected, list(child_schema.names))

    def _desubquery(
        self,
        source: Operator,
        source_schema: Schema,
        predicate: Expression,
        context: list[_ContextLevel],
    ) -> tuple[Operator, Expression, list[_Pending]]:
        """Replace subquery leaves in ``predicate``, stacking GMDJs on
        ``source``.  Returns the extended source, the flattened predicate,
        and pendings that callers at outer levels must resolve."""
        state = _block_state(source, source_schema)
        original = _ContextLevel(source, source_schema)

        def walk(node: Expression) -> Expression:
            if isinstance(node, SubqueryPredicate):
                return self._process_leaf(node, state, original, context)
            if isinstance(node, And):
                return And(walk(node.left), walk(node.right))
            if isinstance(node, Or):
                return Or(walk(node.left), walk(node.right))
            if isinstance(node, Not):
                return Not(walk(node.operand))
            return node

        flat = walk(predicate)
        return state["source"], flat, state["pendings"]

    def _process_leaf(
        self,
        leaf: SubqueryPredicate | Apply,
        state: dict,
        original: _ContextLevel,
        context: list[_ContextLevel],
    ) -> Expression:
        depth = len(context)  # our own level index is `depth`
        subquery = leaf.subquery
        inner_source = self.translate_operator(subquery.source)
        inner_schema = inner_source.schema(self.catalog)
        inner_source, inner_predicate, inner_pendings = self._desubquery(
            inner_source,
            inner_schema,
            subquery.predicate,
            context + [original],
        )
        detail_schema = inner_source.schema(self.catalog)
        # SQL scoping: bare references native to the subquery must keep
        # resolving against the subquery once its expressions move into
        # conditions over base ∪ detail (inner scope wins).
        from repro.algebra.rewrite import qualify_references

        inner_predicate = qualify_references(inner_predicate, detail_schema)
        leaf = self._qualified_leaf(leaf, original.schema, detail_schema)
        mapping = map_leaf(leaf, inner_predicate, self.names)
        blocks = mapping.blocks

        # Resolve pendings produced inside this subquery.
        carried: list[_Pending] = []
        for pending in inner_pendings:
            if pending.level == depth:
                # The pushed copy answers to *this* block's base: link it
                # with identity conjuncts on every base attribute.
                identity = self._identity_condition(
                    original.schema, pending.qualifier
                )
                blocks = [
                    ThetaBlock(b.aggregates, And(b.condition, identity))
                    for b in blocks
                ]
            else:
                # Propagate: embed the same original table at our own base
                # and link our copy to the inner copy, then re-raise the
                # pending one level up.
                qualifier = self._embed(state, pending.level, pending, context)
                link = conjoin(
                    _null_safe_equal(
                        Column(f"{qualifier}.{field.name}"),
                        Column(f"{pending.qualifier}.{field.name}"),
                    )
                    for field in pending.schema.fields
                )
                blocks = [
                    ThetaBlock(b.aggregates, And(b.condition, link))
                    for b in blocks
                ]
                carried.append(
                    _Pending(pending.level, qualifier, pending.schema,
                             pending.original)
                )

        # Detect non-neighboring references in the block conditions and
        # push the referenced outer bases down into our own base.
        blocks = self._resolve_non_neighbors(
            blocks, state, detail_schema, context
        )

        state["source"] = GMDJ(state["source"], inner_source, list(blocks))
        state["schema"] = state["source"].schema(self.catalog)
        state["pendings"].extend(carried)

        # The replacement condition may itself carry non-local references
        # (e.g. the outer operand of an aggregate comparison); those must
        # resolve against our base, which Table 1 guarantees for
        # neighboring predicates.
        for ref in mapping.replacement.references():
            if not state["schema"].has(ref):
                raise TranslationError(
                    f"replacement condition reference {ref!r} does not "
                    f"resolve at its own query block; non-neighboring "
                    f"outer operands of scalar comparisons are not supported"
                )
        return mapping.replacement

    # -- non-neighboring support ------------------------------------------------

    def _resolve_non_neighbors(
        self,
        blocks: list[ThetaBlock],
        state: dict,
        detail_schema: Schema,
        context: list[_ContextLevel],
    ) -> list[ThetaBlock]:
        resolved: list[ThetaBlock] = []
        for block in blocks:
            condition = block.condition
            base_schema: Schema = state["schema"]
            needed: dict[int, list[str]] = {}
            for ref in condition.references():
                if base_schema.has(ref) or detail_schema.has(ref):
                    continue
                level = self._find_level(ref, context)
                needed.setdefault(level, []).append(ref)
            for level, refs in sorted(needed.items()):
                qualifier = self._embed(state, level, None, context)
                level_schema = context[level].schema
                substitutions = {
                    ref: Column(f"{qualifier}.{level_schema.field_of(ref).name}")
                    for ref in refs
                }
                condition = map_columns(condition, lambda node: (
                    substitutions.get(node.reference, node)))
                base_schema = state["schema"]
            resolved.append(ThetaBlock(block.aggregates, condition))
        return resolved

    def _find_level(self, ref: str, context: list[_ContextLevel]) -> int:
        for level in range(len(context) - 1, -1, -1):
            if context[level].schema.has(ref):
                return level
        raise TranslationError(
            f"reference {ref!r} does not resolve in any enclosing scope"
        )

    def _embed(self, state, level, pending: _Pending | None, context) -> str:
        """Join a copy of an outer base into the current block's base.

        Returns the qualifier of the embedded copy; reuses an existing
        embedding of the same level when present.  Registers a new pending
        so the enclosing block links the copy to its own base (unless this
        call itself propagates an existing pending, in which case the
        caller re-raises it explicitly).
        """
        from repro.obs.tracer import span

        embedded: dict[int, str] = state["embedded"]
        if level in embedded:
            return embedded[level]
        self._push_counter += 1
        qualifier = f"__p{self._push_counter}"
        with span("pushdown copy", kind="pushdown", level=level,
                  qualifier=qualifier):
            return self._embed_fresh(
                state, level, pending, context, qualifier
            )

    def _embed_fresh(self, state, level, pending: "_Pending | None",
                     context, qualifier: str) -> str:
        embedded: dict[int, str] = state["embedded"]
        original = pending.original if pending is not None else context[level].source
        schema = pending.schema if pending is not None else context[level].schema
        # The copy is a set: an identity link must meet one copy of a
        # base tuple, however often the tuple repeats.
        state["source"] = Join(
            Rename(Distinct(original), qualifier), state["source"], TRUE,
            kind="inner", method="nested",
        )
        state["schema"] = state["source"].schema(self.catalog)
        embedded[level] = qualifier
        if pending is None:
            state["pendings"].append(
                _Pending(level, qualifier, schema, original)
            )
        return qualifier

    @staticmethod
    def _qualified_leaf(leaf: SubqueryPredicate | Apply, base_schema: Schema,
                        detail_schema: Schema) -> SubqueryPredicate | Apply:
        """Qualify a leaf's outer operand (against the base) and its item /
        aggregate argument (against the detail) so the Table 1 mapping can
        mix them in one condition without capture."""
        from repro.algebra.aggregates import AggregateSpec
        from repro.algebra.nested import (
            Exists,
            QuantifiedComparison,
            ScalarComparison,
            Subquery,
        )
        from repro.algebra.rewrite import qualify_references

        subquery = leaf.subquery
        item = (
            qualify_references(subquery.item, detail_schema)
            if subquery.item is not None else None
        )
        aggregate = subquery.aggregate
        if aggregate is not None and aggregate.argument is not None:
            aggregate = AggregateSpec(
                aggregate.function,
                qualify_references(aggregate.argument, detail_schema),
                aggregate.output_name,
                aggregate.distinct,
            )
        rebuilt = Subquery(subquery.source, subquery.predicate, item,
                           aggregate)
        if isinstance(leaf, Apply):
            return Apply(leaf.input, rebuilt, leaf.output_name)
        if isinstance(leaf, Exists):
            return Exists(rebuilt, leaf.negated)
        outer = qualify_references(leaf.outer, base_schema)
        if isinstance(leaf, ScalarComparison):
            return ScalarComparison(leaf.op, outer, rebuilt)
        assert isinstance(leaf, QuantifiedComparison)
        return QuantifiedComparison(leaf.op, leaf.quantifier, outer, rebuilt)

    @staticmethod
    def _identity_condition(base_schema: Schema, qualifier: str) -> Expression:
        return conjoin(
            _null_safe_equal(
                Column(field.full_name),
                Column(f"{qualifier}.{field.name}"),
            )
            for field in base_schema.fields
        )


def _block_state(source: Operator, schema: Schema) -> dict:
    """What a block's leaves extend: its source (GMDJs stack on it), its
    schema, the pendings raised for outer levels, and the outer levels
    already joined into it (level -> qualifier)."""
    return {"source": source, "schema": schema, "pendings": [],
            "embedded": {}}


def _null_safe_equal(left: Expression, right: Expression) -> Expression:
    """``left IS NOT DISTINCT FROM right`` — TRUE on NULL/NULL.

    Identity links between a base tuple and its pushed-down copy must
    match the copy even on NULL attributes; a plain ``=`` conjunct is
    UNKNOWN there and silently drops every base row containing a NULL
    (caught by the differential fuzzer).
    """
    from repro.algebra.expressions import IsNull, Or

    return Or(
        Comparison("=", left, right),
        And(IsNull(left), IsNull(right)),
    )


def subquery_to_gmdj(query, catalog: Catalog, optimize: bool = False,
                     coalesce: bool = True, completion: bool = True):
    """Translate a nested query into a GMDJ plan (Algorithm SubqueryToGMDJ).

    ``query`` is any operator tree; every :class:`NestedSelect` and
    every :class:`~repro.algebra.nested.Apply` inside it is rewritten.
    With ``optimize=True`` the Section 4 optimizations (coalescing,
    completion fusion) are applied to the result; the two flags select
    them individually for ablation studies.
    """
    from repro.obs.tracer import span

    with span("SubqueryToGMDJ", kind="translate", optimize=optimize):
        translator = _Translator(catalog)
        plan = translator.translate_operator(query)
        if optimize:
            from repro.gmdj.optimize import optimize_plan

            plan = optimize_plan(plan, coalesce=coalesce,
                                 completion=completion, catalog=catalog)
        return plan
