"""The nested query algebra (Bækgaard–Mark style, as used in the paper).

A :class:`NestedSelect` is a selection whose predicate may contain
*subquery predicates* in addition to ordinary comparisons:

* ``ScalarComparison``      — ``σ[x φ S]B`` where S yields a single value
  (a projected attribute, or an aggregate ``f(y)``);
* ``QuantifiedComparison``  — ``σ[x φ_some S]B`` / ``σ[x φ_all S]B``
  (``IN``/``NOT IN`` are the ``=_some`` / ``<>_all`` sugar);
* ``Exists``                — ``σ[∃S]B`` / ``σ[∄S]B``.

A :class:`Subquery` block records its *source* (R), its *predicate* θ
(which may reference attributes of enclosing blocks — *free references* —
and may itself contain subquery predicates: linear nesting), an optional
selected item ``y`` and an optional aggregate ``f(y)``.

:class:`LoopEvaluator` implements **tuple-iteration semantics**, the
nested-loop evaluation the paper uses as the semantic definition, once:
``NestedSelect.evaluate`` and ``Apply.evaluate`` run it with early exit,
and the ``naive`` / ``native`` baselines run it with and without early
exit and index probes.  Every other evaluation strategy in this library
(GMDJ translation, join unnesting) is tested for bag-equivalence against
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from repro.algebra.aggregates import AggregateSpec
from repro.algebra.expressions import (
    And,
    Column,
    Comparison,
    Evaluator,
    Expression,
    Literal,
    Not,
    Or,
    TruthLiteral,
    _compare,
    conjuncts_of,
)
from repro.algebra.operators import ScanTable, TableValue
from repro.algebra.rewrite import map_children
from repro.algebra.truth import Truth
from repro.errors import CardinalityError, ExpressionError, UnknownAttributeError
from repro.storage.catalog import Catalog
from repro.storage.iostats import IOStats
from repro.storage.relation import Relation, Row
from repro.storage.schema import Schema

# An environment maps attribute spellings (qualified and bare) of enclosing
# scopes to values.  A bare name that is ambiguous in its scope maps to
# _AMBIGUOUS and raises only if actually referenced.
_AMBIGUOUS = object()

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
    if isinstance(expression, Column):
        if schema.has(expression.reference):
            return expression
        if expression.reference in env:
            value = env[expression.reference]
            if value is _AMBIGUOUS:
                raise UnknownAttributeError(
                    f"ambiguous outer reference {expression.reference!r}"
                )
            return Literal(value)
        raise UnknownAttributeError(
            f"unresolved reference {expression.reference!r} "
            f"(not in local schema, not bound by enclosing scopes)"
        )
    if isinstance(expression, (Literal, TruthLiteral)):
        return expression
    if isinstance(expression, Comparison):
        return Comparison(
            expression.op,
            substitute_free(expression.left, schema, env),
            substitute_free(expression.right, schema, env),
        )
    if isinstance(expression, And):
        return And(
            substitute_free(expression.left, schema, env),
            substitute_free(expression.right, schema, env),
        )
    if isinstance(expression, Or):
        return Or(
            substitute_free(expression.left, schema, env),
            substitute_free(expression.right, schema, env),
        )
    if isinstance(expression, Not):
        return Not(substitute_free(expression.operand, schema, env))
    # Arithmetic, IsNull and any other composite: rebuild generically.
    from repro.algebra.expressions import Arithmetic, IsNull

    if isinstance(expression, Arithmetic):
        return Arithmetic(
            expression.op,
            substitute_free(expression.left, schema, env),
            substitute_free(expression.right, schema, env),
        )
    if isinstance(expression, IsNull):
        return IsNull(
            substitute_free(expression.operand, schema, env), expression.negated
        )
    if isinstance(expression, SubqueryPredicate):
        raise ExpressionError(
            "subquery predicates are evaluated by LoopEvaluator.predicate, "
            "not substituted"
        )
    raise ExpressionError(f"cannot substitute into {expression!r}")


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

    def __repr__(self) -> str:
        head = "pi["
        if self.aggregate is not None:
            head += repr(self.aggregate)
        elif self.item is not None:
            head += repr(self.item)
        head += "]"
        return f"Subquery({head} sigma[{self.predicate!r}] {self.source!r})"


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
    """``x φ S`` where S must yield at most one row (else a run-time error).

    When the subquery block carries an ``aggregate``, S is the aggregate
    value (always exactly one row, possibly NULL) — the
    ``σ[B.x φ π[f(R.y)]σ[θ](R)]B`` form of Table 1.
    """

    op: str
    outer: Expression
    subquery: Subquery
    is_predicate = True

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


class LoopEvaluator:
    """Tuple-iteration semantics: for every outer tuple, each subquery
    block runs over its source under the tuple's bindings.

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

    def evaluate(self, query: Any) -> Relation:
        """Evaluate ``query``, running every NestedSelect in the tree with
        this evaluator (wrappers such as Project pass through)."""
        return self._rewrite(query).evaluate(self.catalog)

    def _rewrite(self, operator: Any) -> Any:
        rebuilt = map_children(operator, self._rewrite)
        if isinstance(rebuilt, NestedSelect):
            return TableValue(self.select(rebuilt, {}))
        return rebuilt

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
            outer = substitute_free(predicate.outer, schema, env).bind(schema)
            value = outer(row)
            inner_env = env_with_row(env, schema, row)
            return _compare(predicate.op, value,
                            self.scalar(predicate.subquery, inner_env))
        if isinstance(predicate, QuantifiedComparison):
            return self._quantified(predicate, schema, row, env)
        if isinstance(predicate, And):
            left = self.predicate(predicate.left, schema, row, env)
            if left is Truth.FALSE:
                return Truth.FALSE
            return left.and_(self.predicate(predicate.right, schema, row, env))
        if isinstance(predicate, Or):
            left = self.predicate(predicate.left, schema, row, env)
            if left is Truth.TRUE:
                return Truth.TRUE
            return left.or_(self.predicate(predicate.right, schema, row, env))
        if isinstance(predicate, Not):
            return self.predicate(predicate.operand, schema, row, env).not_()
        IOStats.ambient().predicate_evals += 1
        return substitute_free(predicate, schema, env).bind(schema)(row)

    # -- the subquery forms ----------------------------------------------------

    def exists(self, subquery: Subquery, env: Environment) -> bool:
        """Whether ``subquery`` yields a row under ``env``."""
        found = False
        for _ in self._inner_rows(subquery, env):
            found = True
            if self.early_exit:
                break
        return found

    def scalar(self, subquery: Subquery, env: Environment) -> Any:
        """The block's one value under ``env``: its aggregate over the
        qualifying rows, or its item (NULL on no row; more than one row
        raises :class:`CardinalityError`)."""
        values = self._values(subquery, env)
        if subquery.aggregate is not None:
            state = subquery.aggregate.make_accumulator()
            for value in values:
                state.add(value)
            return state.result()
        scalar = None
        for count, value in enumerate(values):
            if count:
                raise CardinalityError("scalar subquery returned multiple rows")
            scalar = value
        return scalar

    def _quantified(self, leaf: QuantifiedComparison, schema: Schema,
                    row: Row, env: Environment) -> Truth:
        """``x φ_some S`` is TRUE on a TRUE comparison, FALSE when S is
        empty or every comparison is FALSE, UNKNOWN otherwise; ``x φ_all
        S`` is its dual (TRUE on an empty S)."""
        outer_value = substitute_free(leaf.outer, schema, env).bind(schema)(row)
        deciding = Truth.TRUE if leaf.quantifier == "some" else Truth.FALSE
        decided = False
        saw_unknown = False
        for value in self._values(leaf.subquery, env_with_row(env, schema, row)):
            verdict = _compare(leaf.op, outer_value, value)
            if verdict is deciding:
                if self.early_exit:
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
                value = substitute_free(item, schema, env).bind(schema)
            yield value(row)

    def _qualifying(self, theta: Expression, rows: Iterable[Row],
                    schema: Schema,
                    env: Environment) -> Iterator[tuple[Row, Schema]]:
        """The (row, schema) pairs of ``rows`` that θ keeps under ``env``;
        a θ without subquery leaves is closed and bound once."""
        closed = (None if has_subqueries(theta)
                  else substitute_free(theta, schema, env).bind(schema))
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
        if self.use_indexes and isinstance(source, ScanTable):
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
                empty = Schema(())
                value = substitute_free(outer_side, empty, env).bind(empty)(())
                return index.probe((value,))
        return None


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
    return _free_references_in(subquery.predicate, schema, catalog) | (
        _free_references_in(subquery.item, schema, catalog)
        if subquery.item is not None
        else set()
    ) | (
        _free_references_in(subquery.aggregate.argument, schema, catalog)
        if subquery.aggregate is not None and subquery.aggregate.argument is not None
        else set()
    )


def _free_references_in(
    predicate: Expression, schema: Schema, catalog: Catalog
) -> set[str]:
    if isinstance(predicate, SubqueryPredicate):
        free = {
            ref
            for ref in predicate.outer_references()
            if not schema.has(ref)
        }
        inner_schema = predicate.subquery.source_schema(catalog)
        # References free in the inner block that this block also cannot
        # resolve remain free here (non-neighboring candidates).
        for ref in free_references(predicate.subquery, catalog):
            if not schema.has(ref):
                free.add(ref)
        del inner_schema
        return free
    if isinstance(predicate, (And, Or)):
        return _free_references_in(predicate.left, schema, catalog) | (
            _free_references_in(predicate.right, schema, catalog)
        )
    if isinstance(predicate, Not):
        return _free_references_in(predicate.operand, schema, catalog)
    return {ref for ref in predicate.references() if not schema.has(ref)}
