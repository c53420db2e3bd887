"""Join/outer-join unnesting — the conventional baseline.

This implements the family of source-level unnesting algorithms the paper
compares against (Kim [17], Dayal [12], Ganski & Wong [15], Muralikrishna
[19, 20], magic decorrelation [24]): each subquery predicate in a
conjunctive WHERE clause is removed by rewriting it into a join against
the (locally filtered) subquery table:

* ``EXISTS``              → semi join on the correlation condition;
* ``NOT EXISTS``          → anti join;
* ``x φ_some S``          → semi join on correlation ∧ φ;
* ``x φ_all S``           → anti join on correlation ∧ (φ̄ ∨ NULL-escape) —
  the NULL-escape disjuncts are what keep three-valued logic right where
  the naive ``MAX`` rewrite fails;
* ``x φ (aggregate S)``   → group the subquery table on its correlation
  attributes, aggregate, **left outer join** (empty groups must yield
  NULL/0), filter — with ``COALESCE(count, 0)`` repairing the classic
  COUNT bug of Kim's algorithm.  These leaves go first, each extending
  every row of the block with its value, so a ``single(y)`` leaf checks
  its cardinality over the whole block, as the GMDJ does.

Join methods model a 2002 commercial engine: equality correlations use a
hash join when the catalog holds an index on the inner attribute (standing
in for an index nested-loop join) and a sort-merge join otherwise;
non-equality correlations (the ``<>`` of Figure 4) have no better plan
than a nested-loop θ-join — which is why the paper measured 7+ hours for
this baseline on that workload.

Limitations (faithful to the literature): only conjunctive predicates are
unnested, subqueries may nest linearly but only with neighboring
correlation predicates, and disjunctions containing subqueries are
rejected — callers fall back to nested-loop evaluation, exactly as
conventional optimizers do.
"""

from __future__ import annotations

from repro.algebra.aggregates import AggregateSpec, count_star
from repro.algebra.expressions import (
    Coalesce,
    Column,
    Comparison,
    Expression,
    IsNull,
    Literal,
    conjoin,
    conjuncts_of,
)
from repro.algebra.nested import (
    Exists,
    NestedSelect,
    QuantifiedComparison,
    ScalarComparison,
    SubqueryPredicate,
    Subquery,
    collect_subquery_predicates,
)
from repro.algebra.operators import (
    GroupBy,
    Join,
    Operator,
    Project,
    Select,
    TableValue,
)
from repro.errors import CardinalityError, TranslationError
from repro.storage.catalog import Catalog
from repro.storage.relation import Relation
from repro.storage.schema import Schema
from repro.unnesting.normalize import push_down_negations


class JoinUnnester:
    """Rewrites and evaluates nested queries via joins/outer-joins."""

    def __init__(self, catalog: Catalog, use_indexes: bool = True):
        self.catalog = catalog
        self.use_indexes = use_indexes
        self._fresh = 0

    # -- entry point ---------------------------------------------------------------

    def evaluate(self, query: Operator) -> Relation:
        """Evaluate a query, unnesting every NestedSelect in the tree
        (wrappers like Project/OrderBy pass through unchanged)."""
        return self._rewrite(query).evaluate(self.catalog)

    def _rewrite(self, operator):
        from repro.algebra.rewrite import map_children

        rebuilt = map_children(operator, self._rewrite)
        if isinstance(rebuilt, NestedSelect):
            predicate = push_down_negations(rebuilt.predicate)
            base = rebuilt.child.evaluate(self.catalog)
            return TableValue(self._unnest_block(base, predicate))
        return rebuilt

    # -- block processing -------------------------------------------------------------

    def _unnest_block(self, base: Relation, predicate: Expression) -> Relation:
        plain, leaves = self._split_conjuncts(predicate)
        current = base
        base_schema = base.schema
        for leaf in leaves:
            if isinstance(leaf, ScalarComparison):
                current, comparison = self._scalar_value(current,
                                                         base_schema, leaf)
                plain.append(comparison)
        for leaf in leaves:
            if not isinstance(leaf, ScalarComparison):
                current = self._apply_leaf(current, base_schema, leaf)
        if plain:
            current = Select(TableValue(current), conjoin(plain)).evaluate(
                self.catalog
            )
        if current.schema is base_schema:
            return current
        return Project(TableValue(current), list(base_schema.names)).evaluate(
            self.catalog)

    def _split_conjuncts(self, predicate: Expression):
        plain: list[Expression] = []
        leaves: list[SubqueryPredicate] = []
        for conjunct in conjuncts_of(predicate):
            if isinstance(conjunct, SubqueryPredicate):
                leaves.append(conjunct)
            elif collect_subquery_predicates(conjunct):
                raise TranslationError(
                    "join unnesting requires conjunctive subquery "
                    "predicates; found a subquery under OR/NOT"
                )
            else:
                plain.append(conjunct)
        return plain, leaves

    # -- per-leaf rewrites -----------------------------------------------------------------

    def _apply_leaf(self, current: Relation, base_schema: Schema,
                    leaf: SubqueryPredicate) -> Relation:
        from repro.algebra.rewrite import qualify_references

        inner, _, correlated = self._prepare_inner(base_schema, leaf.subquery)
        if isinstance(leaf, Exists):
            return self._exists(current, inner, correlated, leaf.negated)
        # Join conditions mix outer and inner expressions over a combined
        # schema; qualify each against its home scope first (inner wins
        # for the item, the outer block for the operand).
        item = (
            qualify_references(leaf.subquery.item, inner.schema)
            if leaf.subquery.item is not None else None
        )
        outer = qualify_references(leaf.outer, current.schema)
        if isinstance(leaf, QuantifiedComparison):
            if leaf.quantifier == "some":
                condition = conjoin(
                    correlated + [Comparison(leaf.op, outer, item)]
                )
                return self._join(current, inner, condition, "semi")
            # ALL: anti join on "violates or is unknowable".
            violation = Comparison(leaf.op, outer, item).complemented()
            escape = violation | IsNull(outer) | IsNull(item)
            condition = conjoin(correlated + [escape])
            return self._join(current, inner, condition, "anti")
        raise TranslationError(f"join unnesting cannot handle {leaf!r}")

    def _prepare_inner(self, base_schema: Schema, subquery: Subquery):
        """Materialize the subquery table with local filters applied.

        Returns ``(relation, local_conjuncts, correlated_conjuncts)``; the
        local filter is applied eagerly, correlation conjuncts become join
        conditions.  Linearly nested subqueries are unnested recursively —
        provided their correlations stay neighboring.
        """
        source = subquery.source
        inner_schema = source.schema(self.catalog)
        local: list[Expression] = []
        correlated: list[Expression] = []
        nested_parts: list[Expression] = []
        for conjunct in conjuncts_of(subquery.predicate):
            if isinstance(conjunct, SubqueryPredicate):
                for ref in conjunct.outer_references():
                    if not inner_schema.has(ref):
                        raise TranslationError(
                            "join unnesting cannot handle non-neighboring "
                            f"correlation reference {ref!r}"
                        )
                nested_parts.append(conjunct)
            elif collect_subquery_predicates(conjunct):
                raise TranslationError(
                    "join unnesting requires conjunctive subquery predicates"
                )
            else:
                refs = conjunct.references()
                if all(inner_schema.has(ref) for ref in refs):
                    local.append(conjunct)
                elif all(
                    inner_schema.has(ref) or base_schema.has(ref)
                    for ref in refs
                ):
                    from repro.algebra.rewrite import qualify_references

                    correlated.append(
                        qualify_references(conjunct, inner_schema)
                    )
                else:
                    raise TranslationError(
                        "join unnesting cannot handle non-neighboring "
                        f"correlation predicate {conjunct!r}"
                    )
        if nested_parts:
            inner_nested = NestedSelect(source, conjoin(local + nested_parts))
            relation = self.evaluate(inner_nested)
        else:
            plan: Operator = source
            if local:
                plan = Select(plan, conjoin(local))
            relation = plan.evaluate(self.catalog)
        return relation, local, correlated

    # -- join machinery -------------------------------------------------------------------

    def _join_method(self, current: Relation, inner: Relation,
                     condition: Expression) -> str:
        """Model the target engine's physical choice (see module docstring)."""
        from repro.algebra.analysis import factor_condition

        factored = factor_condition(condition, current.schema, inner.schema)
        if not factored.has_equality:
            return "nested"
        if self.use_indexes:
            return "hash"
        return "merge"

    def _join(self, current: Relation, inner: Relation,
              condition: Expression, kind: str) -> Relation:
        method = self._join_method(current, inner, condition)
        plan = Join(TableValue(current), TableValue(inner), condition,
                    kind=kind, method=method)
        return plan.evaluate(self.catalog)

    def _exists(self, current: Relation, inner: Relation,
                correlated: list[Expression], negated: bool) -> Relation:
        kind = "anti" if negated else "semi"
        if not correlated:
            # Uncorrelated EXISTS decides once for the whole block.
            nonempty = len(inner) > 0
            keep = (nonempty and not negated) or (not nonempty and negated)
            rows = current.rows if keep else []
            return Relation(current.schema, rows, validate=False)
        return self._join(current, inner, conjoin(correlated), kind)

    def _scalar_value(self, current: Relation, base_schema: Schema,
                      leaf: ScalarComparison) -> tuple[Relation, Expression]:
        """Aggregate-then-outer-join (Muralikrishna), with the COUNT fix:
        ``current`` with the leaf's value as a column (one row per row),
        and the comparison that replaces the leaf.  ``single(y)`` groups
        as ``count(*)`` and ``min(y)`` (its value where the count is 1)
        and raises where a *joined* row counts two."""
        from repro.algebra.rewrite import qualify_references

        inner, _, correlated = self._prepare_inner(base_schema,
                                                   leaf.subquery)
        outer = qualify_references(leaf.outer, current.schema)
        aggregate = leaf.subquery.scalar_aggregate
        value_name = self._fresh_name("val")
        inner_schema = inner.schema
        group_keys: list[str] = []
        join_conjuncts: list[Expression] = []
        for conjunct in correlated:
            if not (isinstance(conjunct, Comparison) and conjunct.op == "="):
                raise TranslationError(
                    "aggregate unnesting needs equality correlation; found "
                    f"{conjunct!r}"
                )
            left_inner = isinstance(conjunct.left, Column) and inner_schema.has(
                conjunct.left.reference
            )
            inner_side, outer_side = (
                (conjunct.left, conjunct.right)
                if left_inner
                else (conjunct.right, conjunct.left)
            )
            if not isinstance(inner_side, Column) or not inner_schema.has(
                inner_side.reference
            ):
                raise TranslationError(
                    f"aggregate unnesting: no inner column in {conjunct!r}"
                )
            group_keys.append(inner_side.reference)
            join_conjuncts.append(
                Comparison("=", outer_side, Column(inner_side.reference))
            )
        argument = (
            qualify_references(aggregate.argument, inner_schema)
            if aggregate.argument is not None else None
        )
        single = aggregate.function == "single"
        specs = [AggregateSpec("min" if single else aggregate.function,
                               argument, value_name, aggregate.distinct)]
        if single:
            specs.append(count_star(self._fresh_name("rows")))
        grouped = GroupBy(TableValue(inner), group_keys, specs).evaluate(
            self.catalog
        )
        if group_keys:
            method = "hash" if self.use_indexes else "merge"
            joined = Join(
                TableValue(current), TableValue(grouped),
                conjoin(join_conjuncts), kind="left", method=method,
            ).evaluate(self.catalog)
        else:
            # Uncorrelated: the single aggregate row applies to every tuple.
            padding = grouped.rows[0] if grouped.rows else (None,) * len(specs)
            joined = Relation(
                current.schema.concat(grouped.schema),
                [row + padding for row in current.rows],
                validate=False,
            )
        if single and any((row[-1] or 0) > 1 for row in joined.rows):
            raise CardinalityError("scalar subquery returned multiple rows")
        value_expr: Expression = Column(value_name)
        if aggregate.function == "count":
            value_expr = Coalesce(value_expr, Literal(0))
        extended = Project(TableValue(joined),
                           [*current.schema.names, value_name])
        return (extended.evaluate(self.catalog),
                Comparison(leaf.op, outer, value_expr))

    def _fresh_name(self, kind: str) -> str:
        self._fresh += 1
        return f"__ju{kind}{self._fresh}"


def evaluate_join_unnest(query: Operator, catalog: Catalog,
                         use_indexes: bool = True) -> Relation:
    """Evaluate a nested query by conventional join/outer-join unnesting."""
    from repro.obs.tracer import span

    with span("join_unnest", kind="baseline", use_indexes=use_indexes) as sp:
        result = JoinUnnester(catalog, use_indexes=use_indexes).evaluate(query)
        sp.set(output_rows=len(result))
        return result
