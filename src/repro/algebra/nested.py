"""The nested query algebra (Bækgaard–Mark style, as used in the paper).

A :class:`NestedSelect` is a selection whose predicate may contain
*subquery predicates* in addition to ordinary comparisons:

* ``ScalarComparison``      — ``σ[x φ S]B`` where S yields a single value:
  an aggregate ``f(y)``, or a projected attribute ``y`` read as the
  aggregate ``single(y)`` (NULL on no row, an error on a second);
* ``QuantifiedComparison``  — ``σ[x φ_some S]B`` / ``σ[x φ_all S]B``
  (``IN``/``NOT IN`` are the ``=_some`` / ``<>_all`` sugar);
* ``Exists``                — ``σ[∃S]B`` / ``σ[∄S]B``.

A :class:`Subquery` block records its *source* (R), its *predicate* θ
(which may reference attributes of enclosing blocks — *free references* —
and may itself contain subquery predicates: linear nesting), an optional
selected item ``y`` and an optional aggregate ``f(y)``.  An
:class:`Apply` holds one in the SELECT list.

:class:`LoopEvaluator` implements **tuple-iteration semantics**, the
nested-loop evaluation the paper uses as the semantic definition, once:
``NestedSelect.evaluate`` and ``Apply.evaluate`` run it with early exit,
and the ``naive`` / ``native`` baselines run it with and without early
exit and index probes.  Every other evaluation strategy in this library
(GMDJ translation, join unnesting) is tested for bag-equivalence against
it.  Around a ``single`` block it takes no shortcut (see
:class:`LoopEvaluator`), so it raises where the GMDJ translation does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from repro.algebra.aggregates import AggregateSpec, single
from repro.algebra.expressions import (
    And,
    Column,
    Comparison,
    Evaluator,
    Expression,
    Literal,
    Not,
    Or,
    _compare,
    bind_one_off,
    conjuncts_of,
    map_columns,
)
from repro.algebra.operators import Operator, ScanTable, TableValue
from repro.algebra.rewrite import map_children
from repro.algebra.truth import Truth
from repro.errors import ExpressionError, UnknownAttributeError
from repro.storage.catalog import Catalog
from repro.storage.iostats import IOStats
from repro.storage.relation import Relation, Row
from repro.storage.schema import Field, Schema

# An environment maps attribute spellings (qualified and bare) of enclosing
# scopes to values.  A bare name that is ambiguous in its scope maps to
# _AMBIGUOUS and raises only if actually referenced.
_AMBIGUOUS = object()
_UNBOUND = object()

Environment = dict


def env_with_row(env: Environment, schema: Schema, row: Row) -> Environment:
    """Extend ``env`` with the bindings of one tuple of ``schema``.

    Inner bindings shadow outer ones, matching SQL scoping rules.
    """
    extended = dict(env)
    bare_seen: set[str] = set()
    for field_, value in zip(schema.fields, row):
        extended[field_.full_name] = value
        if field_.name in bare_seen:
            extended[field_.name] = _AMBIGUOUS
        else:
            bare_seen.add(field_.name)
            extended[field_.name] = value
    return extended


def substitute_free(
    expression: Expression, schema: Schema, env: Environment
) -> Expression:
    """Replace free references (not in ``schema``) with environment values.

    References resolvable in the local ``schema`` are left intact; anything
    else must be bound by ``env`` or an :class:`UnknownAttributeError` is
    raised.  The result is a closed expression over ``schema``.
    """

    def closed(node: Column) -> Expression:
        if schema.has(node.reference):
            return node
        value = env.get(node.reference, _UNBOUND)
        if value is _UNBOUND:
            raise UnknownAttributeError(
                f"unresolved reference {node.reference!r} "
                f"(not in local schema, not bound by enclosing scopes)"
            )
        if value is _AMBIGUOUS:
            raise UnknownAttributeError(
                f"ambiguous outer reference {node.reference!r}"
            )
        return Literal(value)

    return map_columns(expression, closed)


@dataclass(frozen=True, eq=False, repr=False)
class Subquery:
    """One subquery block: ``π[item] σ[predicate] source`` (+ optional f).

    ``source`` is any flat operator (usually a table scan with an alias).
    ``predicate`` is the block's θ; it may contain free references and
    nested :class:`SubqueryPredicate` leaves.  ``item`` is the selected
    expression for scalar/quantified forms (``None`` for EXISTS blocks).
    ``aggregate`` turns the block into an aggregate scalar subquery
    ``π[f(y)] σ[θ] R``.
    """

    source: Any  # Operator; typed loosely to avoid a circular import
    predicate: Expression
    item: Expression | None = None
    aggregate: AggregateSpec | None = None

    def __post_init__(self) -> None:
        if self.aggregate is not None and self.item is not None:
            raise ExpressionError("a subquery has either an item or an aggregate")

    def source_schema(self, catalog: Catalog) -> Schema:
        return self.source.schema(catalog)

    @property
    def scalar_aggregate(self) -> AggregateSpec:
        """A scalar block's aggregate (an item is bound as ``single(y)``:
        :func:`single_valued`)."""
        assert self.aggregate is not None
        return self.aggregate

    def __repr__(self) -> str:
        head = "pi["
        if self.aggregate is not None:
            head += repr(self.aggregate)
        elif self.item is not None:
            head += repr(self.item)
        head += "]"
        return f"Subquery({head} sigma[{self.predicate!r}] {self.source!r})"


def single_valued(subquery: Subquery) -> Subquery:
    """A scalar block as an aggregate block: ``π[y]`` becomes
    ``π[single(y)]``; an aggregate block is returned as it is."""
    if subquery.aggregate is not None:
        return subquery
    if subquery.item is None:
        raise ExpressionError("a scalar subquery selects an item or an "
                              "aggregate")
    return Subquery(subquery.source, subquery.predicate,
                    aggregate=single(subquery.item))


class SubqueryPredicate(Expression):
    """Base class for predicate leaves that contain a subquery."""

    is_predicate = True
    subquery: Subquery

    def bind(self, schema: Schema) -> Evaluator:
        raise ExpressionError(
            "subquery predicates cannot be bound directly; evaluate them "
            "with LoopEvaluator.predicate or translate them away first"
        )

    def outer_references(self) -> set[str]:
        """References in the outer operand expression (if any)."""
        return set()


@dataclass(frozen=True, eq=False, repr=False)
class Exists(SubqueryPredicate):
    """``∃ S`` / ``∄ S`` — two-valued by definition."""

    subquery: Subquery
    negated: bool = False
    is_predicate = True

    def references(self) -> set[str]:
        return set()

    def __repr__(self) -> str:
        symbol = "NOT EXISTS" if self.negated else "EXISTS"
        return f"({symbol} {self.subquery!r})"


@dataclass(frozen=True, eq=False, repr=False)
class ScalarComparison(SubqueryPredicate):
    """``x φ S`` where S is one value: the block's aggregate — the
    ``σ[B.x φ π[f(R.y)]σ[θ](R)]B`` form of Table 1 — with a selected item
    ``y`` bound as ``single(y)`` (:func:`single_valued`).
    """

    op: str
    outer: Expression
    subquery: Subquery
    is_predicate = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "subquery", single_valued(self.subquery))

    def references(self) -> set[str]:
        return self.outer.references()

    def outer_references(self) -> set[str]:
        return self.outer.references()

    def __repr__(self) -> str:
        return f"({self.outer!r} {self.op} {self.subquery!r})"


@dataclass(frozen=True, eq=False, repr=False)
class QuantifiedComparison(SubqueryPredicate):
    """``x φ_some S`` / ``x φ_all S`` with full SQL 3-valued semantics.

    SOME: TRUE if the comparison is TRUE for at least one subquery row;
    FALSE if S is empty or the comparison is FALSE for every row;
    UNKNOWN otherwise.  ALL is the dual (TRUE on empty S — the footnote-2
    case that breaks the MAX shortcut).
    """

    op: str
    quantifier: str  # "some" | "all"
    outer: Expression
    subquery: Subquery
    is_predicate = True

    def __post_init__(self) -> None:
        if self.quantifier not in ("some", "all"):
            raise ExpressionError(f"bad quantifier {self.quantifier!r}")

    def references(self) -> set[str]:
        return self.outer.references()

    def outer_references(self) -> set[str]:
        return self.outer.references()

    def __repr__(self) -> str:
        return f"({self.outer!r} {self.op}_{self.quantifier} {self.subquery!r})"


def in_predicate(outer: Expression, subquery: Subquery) -> QuantifiedComparison:
    """``x IN S  ≡  x =_some S`` (the paper's Section 2.1 definition)."""
    return QuantifiedComparison("=", "some", outer, subquery)


def not_in_predicate(outer: Expression, subquery: Subquery) -> QuantifiedComparison:
    """``x NOT IN S  ≡  x <>_all S``."""
    return QuantifiedComparison("<>", "all", outer, subquery)


@dataclass
class NestedSelect:
    """``σ[W] child`` where W may contain subquery predicates.

    This type implements the :class:`~repro.algebra.operators.Operator`
    protocol, so nested selections compose with the flat algebra (and may
    appear as subquery sources — linearly nested queries).
    """

    child: Any  # Operator
    predicate: Expression

    def children(self) -> tuple[Any, ...]:
        return (self.child,)

    def schema(self, catalog: Catalog) -> Schema:
        return self.child.schema(catalog)

    def evaluate(self, catalog: Catalog) -> Relation:
        return LoopEvaluator(catalog, early_exit=True).select(self, {})


@dataclass
class Apply(Operator):
    """``input APPLY subquery`` (Galindo-Legaria & Joshi, VLDB 2001): each
    input tuple extended with the subquery's value as ``output_name`` —
    a SELECT-list scalar subquery.

    §2.1 of the paper: "we could map to GMDJs from the APPLY operator …
    in the same way"; Algorithm SubqueryToGMDJ translates it with the
    leaf step of a WHERE subquery, into ``MD(input, R, f(y) → name, θ)``.
    ``subquery``'s predicate may reference the input (the correlation)
    and hold subquery predicates of its own; a selected item ``y`` is
    bound as ``single(y)`` (:func:`single_valued`).
    """

    input: Operator
    subquery: Subquery
    output_name: str = "value"

    def __post_init__(self) -> None:
        self.subquery = single_valued(self.subquery)

    def children(self) -> tuple[Operator, ...]:
        return (self.input,)

    def schema(self, catalog: Catalog) -> Schema:
        spec = self.subquery.scalar_aggregate
        dtype = spec.output_field(self.subquery.source_schema(catalog)).dtype
        return self.input.schema(catalog).extend(
            [Field(self.output_name, dtype)])

    def evaluate(self, catalog: Catalog) -> Relation:
        return LoopEvaluator(catalog, early_exit=True).evaluate(self)


def has_subquery_form(plan: Any) -> bool:
    """True when ``plan`` holds a subquery the binder left in place: a
    :class:`NestedSelect` (WHERE position) or an :class:`Apply`
    (SELECT-list position).  Algorithm SubqueryToGMDJ has work to do
    exactly when this holds."""
    return isinstance(plan, (NestedSelect, Apply)) or any(
        has_subquery_form(child) for child in plan.children()
    )


class LoopEvaluator:
    """Tuple-iteration semantics: for every outer tuple, each subquery
    block runs over its source under the tuple's bindings.

    A ``single`` block raises iff some tuple of its GMDJ's base has two
    or more θ-rows (DESIGN.md), so within a predicate that holds one
    nothing is skipped: neither ``AND`` / ``OR`` short-circuits, nor an
    inner block exits early or probes an index, whatever the switches.

    ``early_exit``   stop scanning an inner block as soon as the subquery
                     predicate's outcome is decided (EXISTS on the first
                     match, SOME / ALL on the first deciding row); without
                     it every inner block is scanned to its end — the
                     paper's naive loop.
    ``use_indexes``  when the inner block is a plain table scan and the
                     catalog holds a hash index matching an equality
                     correlation conjunct, probe the index instead of
                     scanning — a conventional engine's correlation lookup.

    Each closed atom evaluated counts one ``predicate_evals``: an outer
    predicate's comparisons per outer tuple, a block's θ per inner tuple.
    """

    def __init__(self, catalog: Catalog, early_exit: bool = False,
                 use_indexes: bool = False) -> None:
        self.catalog = catalog
        self.early_exit = early_exit
        self.use_indexes = use_indexes
        self._holds: dict[int, bool] = {}

    def evaluate(self, query: Any) -> Relation:
        """Evaluate ``query``, running every NestedSelect in the tree with
        this evaluator (wrappers such as Project pass through)."""
        return self._rewrite(query).evaluate(self.catalog)

    def _rewrite(self, operator: Any) -> Any:
        rebuilt = map_children(operator, self._rewrite)
        if isinstance(rebuilt, NestedSelect):
            return TableValue(self.select(rebuilt, {}))
        if isinstance(rebuilt, Apply):
            return TableValue(self.apply(rebuilt))
        return rebuilt

    def apply(self, apply: Apply) -> Relation:
        """The tuples of ``apply``'s input, each extended with its
        subquery's value."""
        source = apply.input.evaluate(self.catalog)
        stats = IOStats.ambient()
        stats.record_scan(len(source))
        rows = [row + (self.scalar(apply.subquery,
                                   env_with_row({}, source.schema, row)),)
                for row in source.rows]
        stats.tuples_output += len(rows)
        return Relation(apply.schema(self.catalog), rows, validate=False)

    def select(self, nested: NestedSelect, env: Environment) -> Relation:
        """The tuples of ``nested``'s child that its predicate keeps."""
        from repro.obs.tracer import span

        with span("NestedSelect", kind="nested_loop",
                  early_exit=self.early_exit,
                  use_indexes=self.use_indexes) as sp:
            child = nested.child
            if isinstance(child, NestedSelect):
                source = self.select(child, env)
            else:
                with span("outer", kind="materialize"):
                    source = child.evaluate(self.catalog)
            stats = IOStats.ambient()
            stats.record_scan(len(source))
            rows = [row for row in source.rows
                    if self.predicate(nested.predicate, source.schema, row,
                                      env).is_true]
            stats.tuples_output += len(rows)
            sp.set(outer_rows=len(source), output_rows=len(rows))
            return Relation(source.schema, rows, validate=False)

    def predicate(self, predicate: Expression, schema: Schema, row: Row,
                  env: Environment) -> Truth:
        """A (possibly nested) predicate's truth for one tuple."""
        if isinstance(predicate, Exists):
            inner_env = env_with_row(env, schema, row)
            return Truth.of(self.exists(predicate.subquery, inner_env)
                            != predicate.negated)
        if isinstance(predicate, ScalarComparison):
            value = _closed(predicate.outer, schema, env)(row)
            inner_env = env_with_row(env, schema, row)
            return _compare(predicate.op, value,
                            self.scalar(predicate.subquery, inner_env))
        if isinstance(predicate, QuantifiedComparison):
            return self._quantified(predicate, schema, row, env)
        if isinstance(predicate, And):
            left = self.predicate(predicate.left, schema, row, env)
            if left is Truth.FALSE and not self._holds_single(predicate.right):
                return Truth.FALSE
            return left.and_(self.predicate(predicate.right, schema, row, env))
        if isinstance(predicate, Or):
            left = self.predicate(predicate.left, schema, row, env)
            if left is Truth.TRUE and not self._holds_single(predicate.right):
                return Truth.TRUE
            return left.or_(self.predicate(predicate.right, schema, row, env))
        if isinstance(predicate, Not):
            return self.predicate(predicate.operand, schema, row, env).not_()
        IOStats.ambient().predicate_evals += 1
        return _closed(predicate, schema, env)(row)

    def _holds_single(self, predicate: Expression) -> bool:
        """:func:`holds_single`, memoized per predicate object."""
        known = self._holds.get(id(predicate))
        if known is None:
            known = self._holds[id(predicate)] = holds_single(predicate)
        return known

    # -- the subquery forms ----------------------------------------------------

    def exists(self, subquery: Subquery, env: Environment) -> bool:
        """Whether ``subquery`` yields a row under ``env``."""
        found = False
        early_exit = self._may_skip(subquery)
        for _ in self._inner_rows(subquery, env):
            found = True
            if early_exit:
                break
        return found

    def scalar(self, subquery: Subquery, env: Environment) -> Any:
        """The block's aggregate over its qualifying rows under ``env``
        (``single`` raises :class:`~repro.errors.CardinalityError` on a
        second row)."""
        state = subquery.scalar_aggregate.make_accumulator()
        for value in self._values(subquery, env):
            state.add(value)
        return state.result()

    def _may_skip(self, subquery: Subquery) -> bool:
        """Early exit holds for ``subquery`` unless its θ holds a
        ``single`` block."""
        return self.early_exit and not self._holds_single(subquery.predicate)

    def _quantified(self, leaf: QuantifiedComparison, schema: Schema,
                    row: Row, env: Environment) -> Truth:
        """``x φ_some S`` is TRUE on a TRUE comparison, FALSE when S is
        empty or every comparison is FALSE, UNKNOWN otherwise; ``x φ_all
        S`` is its dual (TRUE on an empty S)."""
        outer_value = _closed(leaf.outer, schema, env)(row)
        early_exit = self._may_skip(leaf.subquery)
        deciding = Truth.TRUE if leaf.quantifier == "some" else Truth.FALSE
        decided = False
        saw_unknown = False
        for value in self._values(leaf.subquery, env_with_row(env, schema, row)):
            verdict = _compare(leaf.op, outer_value, value)
            if verdict is deciding:
                if early_exit:
                    return deciding
                decided = True
            elif verdict is Truth.UNKNOWN:
                saw_unknown = True
        if decided:
            return deciding
        return Truth.UNKNOWN if saw_unknown else deciding.not_()

    # -- inner block access ----------------------------------------------------

    def _values(self, subquery: Subquery, env: Environment) -> Iterator[Any]:
        """The block's item (or aggregate argument) over its qualifying
        rows; None per row for ``count(*)``."""
        item = subquery.item
        if item is None and subquery.aggregate is not None:
            item = subquery.aggregate.argument
        value: Evaluator | None = None
        for row, schema in self._inner_rows(subquery, env):
            if item is None:
                yield None
                continue
            if value is None:
                value = _closed(item, schema, env)
            yield value(row)

    def _qualifying(self, theta: Expression, rows: Iterable[Row],
                    schema: Schema,
                    env: Environment) -> Iterator[tuple[Row, Schema]]:
        """The (row, schema) pairs of ``rows`` that θ keeps under ``env``;
        a θ without subquery leaves is closed and bound once."""
        closed = (None if has_subqueries(theta)
                  else _closed(theta, schema, env))
        stats = IOStats.ambient()
        for row in rows:
            if closed is not None:
                stats.predicate_evals += 1
                keep = closed(row).is_true
            else:
                keep = self.predicate(theta, schema, row, env).is_true
            if keep:
                yield row, schema

    def _inner_rows(self, subquery: Subquery,
                    env: Environment) -> Iterator[tuple[Row, Schema]]:
        """The block's qualifying (row, schema) pairs: a scan of its
        source, or under ``use_indexes`` a probe when an equality
        correlation conjunct meets a catalog hash index."""
        source = subquery.source
        if (self.use_indexes and isinstance(source, ScanTable)
                and not self._holds_single(subquery.predicate)):
            probed = self._index_probe(subquery, source, env)
            if probed is not None:
                return self._qualifying(subquery.predicate, probed,
                                        source.schema(self.catalog), env)
        relation = source.evaluate(self.catalog)
        IOStats.ambient().record_scan(len(relation))
        return self._qualifying(subquery.predicate, relation.rows,
                                relation.schema, env)

    def _index_probe(self, subquery: Subquery, source: ScanTable,
                     env: Environment) -> list[Row] | None:
        """The stored rows an index returns for the first equality
        correlation conjunct ``inner column = closed outer expression``
        whose column is indexed, or None (scan instead).  Only plain
        conjunctions qualify, as in a conventional engine's rewrite."""
        alias_schema = source.schema(self.catalog)
        for conjunct in conjuncts_of(subquery.predicate):
            if not isinstance(conjunct, Comparison) or conjunct.op != "=":
                continue
            for inner_side, outer_side in (
                (conjunct.left, conjunct.right),
                (conjunct.right, conjunct.left),
            ):
                if not isinstance(inner_side, Column):
                    continue
                if not alias_schema.has(inner_side.reference):
                    continue
                outer_refs = outer_side.references()
                if any(alias_schema.has(ref) for ref in outer_refs):
                    continue
                bare = alias_schema.field_of(inner_side.reference).name
                index = self.catalog.hash_index(source.table_name, (bare,))
                if index is None or not all(ref in env for ref in outer_refs):
                    continue
                value = _closed(outer_side, Schema(()), env)(())
                return index.probe((value,))
        return None


def _closed(expression: Expression, schema: Schema,
            env: Environment) -> Evaluator:
    """``expression`` with ``env``'s values substituted, bound over
    ``schema`` once: a per-tuple expression stays out of the shared bind
    cache, which it would only flood."""
    return bind_one_off(substitute_free(expression, schema, env), schema)


def collect_subquery_predicates(predicate: Expression) -> list[SubqueryPredicate]:
    """All subquery leaves of a predicate tree, left to right."""
    if isinstance(predicate, SubqueryPredicate):
        return [predicate]
    if isinstance(predicate, (And, Or)):
        return collect_subquery_predicates(
            predicate.left
        ) + collect_subquery_predicates(predicate.right)
    if isinstance(predicate, Not):
        return collect_subquery_predicates(predicate.operand)
    return []


def has_subqueries(predicate: Expression) -> bool:
    return bool(collect_subquery_predicates(predicate))


def holds_single(predicate: Expression) -> bool:
    """Whether a ``single`` block sits anywhere in ``predicate``, nested
    blocks included."""
    return any(
        (isinstance(leaf, ScalarComparison)
         and leaf.subquery.scalar_aggregate.function == "single")
        or holds_single(leaf.subquery.predicate)
        for leaf in collect_subquery_predicates(predicate))


def free_references(
    subquery: Subquery, catalog: Catalog
) -> set[str]:
    """References in a block's predicate that its own source cannot resolve.

    These are the paper's *free references*; a predicate containing one is a
    *correlation predicate*.  Nested blocks are scanned recursively (their
    own sources extend the local scope), which is how *non-neighboring*
    predicates are discovered.
    """
    schema = subquery.source_schema(catalog)
    parts = (subquery.predicate, subquery.item,
             subquery.aggregate and subquery.aggregate.argument)
    return set().union(*(_free_references_in(part, schema, catalog)
                         for part in parts if part is not None))


def _free_references_in(
    predicate: Expression, schema: Schema, catalog: Catalog
) -> set[str]:
    if isinstance(predicate, SubqueryPredicate):
        # References free in the inner block that this block also cannot
        # resolve remain free here (non-neighboring candidates).
        return {ref for ref in (predicate.outer_references()
                                | free_references(predicate.subquery, catalog))
                if not schema.has(ref)}
    if isinstance(predicate, (And, Or)):
        return _free_references_in(predicate.left, schema, catalog) | (
            _free_references_in(predicate.right, schema, catalog)
        )
    if isinstance(predicate, Not):
        return _free_references_in(predicate.operand, schema, catalog)
    return {ref for ref in predicate.references() if not schema.has(ref)}
