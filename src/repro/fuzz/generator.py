"""Grammar-driven random subquery generation.

Coverage targets, mapped to the paper:

* all six Table-1 subquery forms — scalar comparison (over an
  aggregate, or over a plain item, which raises where it meets two
  rows), ``SOME``, ``ALL``, ``EXISTS`` / ``NOT EXISTS``, ``IN`` /
  ``NOT IN``;
* linear nesting: a subquery whose WHERE itself holds a subquery
  predicate (Theorem 3.2), up to a configurable depth;
* non-neighboring correlation: an inner block referencing an alias two
  or more scopes out (Theorems 3.3/3.4), forcing the translator's
  push-down joins;
* conjunctions and disjunctions of subquery predicates over the *same*
  detail table, the inputs Proposition 4.1's coalescing wants, plus NOT
  so normalization (negation push-down) stays exercised;
* NULL-sensitive dressing: IS NULL leaves, NULL literals in local
  filters, string as well as integer correlation;
* SELECT-list scalar subqueries (the APPLY position, §2.1): one to
  three per query, aggregates or plain items, usually siblings over one
  detail table (the shape Proposition 4.1 coalesces into one scan),
  with ``=`` and ``<>`` correlation and nested inner predicates, beside
  the WHERE subquery, a plain WHERE, or none.

The data's correlation keys repeat (:mod:`repro.fuzz.datagen`), so a
plain scalar item raises in some cases and not in others.

All randomness flows through the caller's ``random.Random`` so any case
is reproducible from its seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.fuzz.queries import (
    AggSpecIR,
    AndP,
    ColRef,
    Cmp,
    ExistsP,
    InP,
    IsNullP,
    Lit,
    NotP,
    OrP,
    QuantCmp,
    QueryIR,
    ScalarCmp,
    Sub,
)

_COMPARISON_OPS = ("=", "<>", "<", "<=", ">", ">=")
_STRING_OPS = ("=", "<>")
_AGG_FUNCTIONS = ("count", "sum", "avg", "min", "max")
_FORMS = ("exists", "not_exists", "in", "not_in", "some", "all", "scalar")

#: Per-table column roles: (numeric value column, string column or None).
_TABLE_COLUMNS = {
    "B": ("x", "s"),
    "R": ("y", "s"),
    "S": ("z", None),
}
_DETAIL_TABLES = ("R", "S", "B")


@dataclass
class GrammarConfig:
    """Knobs for the query grammar."""

    max_depth: int = 3          # linear-nesting depth bound
    nest_probability: float = 0.35
    non_neighbor_probability: float = 0.3
    select_list_probability: float = 0.3
    value_domain: int = 7

    def __post_init__(self):
        if self.max_depth < 1:
            raise ConfigurationError(
                f"max_depth must be >= 1, got {self.max_depth}"
            )


@dataclass(frozen=True)
class _Scope:
    """One enclosing block the subquery can correlate against."""

    alias: str
    table: str


class _QueryBuilder:
    def __init__(self, rng: random.Random, config: GrammarConfig):
        self.rng = rng
        self.config = config
        self.alias_counter = 0

    def fresh_alias(self) -> str:
        self.alias_counter += 1
        return f"r{self.alias_counter}"

    # -- literals and operands ----------------------------------------------

    def int_literal(self) -> Lit:
        return Lit(self.rng.randint(0, self.config.value_domain))

    def numeric_ref(self, scope: _Scope) -> ColRef:
        column = self.rng.choice(("k", _TABLE_COLUMNS[scope.table][0]))
        return ColRef(scope.alias, column)

    # -- subquery construction ----------------------------------------------

    def correlation(self, alias: str, table: str,
                    scopes: list[_Scope]) -> list:
        """Conjuncts tying the new block to its enclosing scopes."""
        conjuncts = []
        rng = self.rng
        # Neighboring correlation on the shared key: the common case.
        if rng.random() < 0.75:
            conjuncts.append(
                Cmp("=", ColRef(alias, "k"), ColRef(scopes[-1].alias, "k"))
            )
        # Non-neighboring: reference a scope at least two levels out
        # (Theorems 3.3/3.4 — push-down joins in the translation).
        if len(scopes) >= 2 and rng.random() < self.config.non_neighbor_probability:
            outer = rng.choice(scopes[:-1])
            conjuncts.append(
                Cmp(rng.choice(_COMPARISON_OPS),
                    self.numeric_ref(_Scope(alias, table)),
                    self.numeric_ref(outer))
            )
        # String correlation when both blocks carry the string column.
        string_column = _TABLE_COLUMNS[table][1]
        neighbor_string = _TABLE_COLUMNS[scopes[-1].table][1]
        if (string_column and neighbor_string and rng.random() < 0.2):
            conjuncts.append(
                Cmp(rng.choice(_STRING_OPS),
                    ColRef(alias, string_column),
                    ColRef(scopes[-1].alias, neighbor_string))
            )
        # A local filter, occasionally against a NULL literal to keep
        # three-valued comparisons hot.
        if rng.random() < 0.5:
            literal = (Lit(None) if rng.random() < 0.1
                       else self.int_literal())
            conjuncts.append(
                Cmp(rng.choice(_COMPARISON_OPS),
                    self.numeric_ref(_Scope(alias, table)), literal)
            )
        if rng.random() < 0.15:
            conjuncts.append(
                IsNullP(self.numeric_ref(_Scope(alias, table)),
                        negated=rng.random() < 0.5)
            )
        return conjuncts

    def subquery(self, scopes: list[_Scope], depth: int,
                 table: str | None = None) -> Sub:
        rng = self.rng
        table = table or rng.choice(_DETAIL_TABLES)
        alias = self.fresh_alias()
        conjuncts = self.correlation(alias, table, scopes)
        # Linear nesting (Theorem 3.2): the block's WHERE holds a
        # subquery predicate of its own.
        if depth < self.config.max_depth and rng.random() < self.config.nest_probability:
            conjuncts.append(
                self.subquery_leaf(scopes + [_Scope(alias, table)],
                                   depth + 1)
            )
        where = None
        for conjunct in conjuncts:
            where = conjunct if where is None else AndP(where, conjunct)
        return Sub(table, alias, where)

    def subquery_leaf(self, scopes: list[_Scope], depth: int,
                      table: str | None = None):
        """One of the six Table-1 forms."""
        rng = self.rng
        form = rng.choice(_FORMS)
        sub = self.subquery(scopes, depth, table)
        numeric_column = _TABLE_COLUMNS[sub.table][0]
        string_column = _TABLE_COLUMNS[sub.table][1]
        outer = scopes[-1]
        if form == "exists":
            return ExistsP(sub)
        if form == "not_exists":
            return ExistsP(sub, negated=True)
        if form in ("in", "not_in"):
            outer_string = _TABLE_COLUMNS[outer.table][1]
            if (string_column and outer_string and rng.random() < 0.3):
                left = ColRef(outer.alias, outer_string)
                item = string_column
            else:
                left = self.numeric_ref(outer)
                item = rng.choice(("k", numeric_column))
            return InP(left, Sub(sub.table, sub.alias, sub.where, item=item),
                       negated=form == "not_in")
        if form in ("some", "all"):
            item = rng.choice(("k", numeric_column))
            return QuantCmp(
                rng.choice(_COMPARISON_OPS), form, self.numeric_ref(outer),
                Sub(sub.table, sub.alias, sub.where, item=item),
            )
        return ScalarCmp(rng.choice(_COMPARISON_OPS), self.numeric_ref(outer),
                         self.scalar_value(sub))

    def scalar_value(self, sub: Sub) -> Sub:
        """``sub`` selecting one value: a plain item (about one time in
        three) or an aggregate."""
        if self.rng.random() < 0.35:
            item = self.rng.choice(("k", _TABLE_COLUMNS[sub.table][0]))
            return Sub(sub.table, sub.alias, sub.where, item=item)
        return Sub(sub.table, sub.alias, sub.where,
                   agg=self.aggregate(sub.table))

    def aggregate(self, table: str) -> AggSpecIR:
        rng = self.rng
        function = rng.choice(_AGG_FUNCTIONS)
        if function == "count" and rng.random() < 0.4:
            return AggSpecIR("count", None)
        column = rng.choice(("k", _TABLE_COLUMNS[table][0]))
        distinct = function in ("count", "sum") and rng.random() < 0.25
        return AggSpecIR(function, column, distinct)

    def select_list(self, scope: _Scope) -> tuple[Sub, ...]:
        """One to three SELECT-list scalar subqueries.

        Their blocks may nest as a WHERE subquery's do, siblings mostly
        share one detail table, and a ``<>`` correlation joins the usual
        ``=`` one often enough that scan-partitioned blocks coalesce
        beside hash-partitioned ones.
        """
        rng = self.rng
        shared = rng.choice(_DETAIL_TABLES) if rng.random() < 0.7 else None
        subs = []
        for _ in range(rng.choice((1, 2, 2, 3))):
            sub = self.subquery([scope], 1, shared)
            where = sub.where
            if rng.random() < 0.3:
                unequal = Cmp("<>", self.numeric_ref(_Scope(sub.alias,
                                                            sub.table)),
                              self.numeric_ref(scope))
                where = unequal if where is None else AndP(where, unequal)
            subs.append(self.scalar_value(Sub(sub.table, sub.alias, where)))
        return tuple(subs)

    # -- outer predicate -----------------------------------------------------

    def plain_leaf(self, scope: _Scope):
        rng = self.rng
        if rng.random() < 0.3:
            return IsNullP(self.numeric_ref(scope),
                           negated=rng.random() < 0.5)
        return Cmp(rng.choice(_COMPARISON_OPS), self.numeric_ref(scope),
                   self.int_literal())

    def outer_predicate(self, scope: _Scope):
        rng = self.rng
        scopes = [scope]
        shape = rng.choices(
            ("single", "not", "and", "or", "and_same", "or_same"),
            weights=(30, 12, 15, 15, 14, 14),
        )[0]
        first = self.subquery_leaf(scopes, 1)
        if shape == "single":
            return first
        if shape == "not":
            return NotP(first)
        if shape in ("and_same", "or_same"):
            # Both subqueries range over the same detail table — the
            # shape Proposition 4.1's coalescing merges into one GMDJ.
            table = _first_sub_table(first) or rng.choice(_DETAIL_TABLES)
            second = self.subquery_leaf(scopes, 1, table=table)
            combine = AndP if shape == "and_same" else OrP
            return combine(first, second)
        second = (self.subquery_leaf(scopes, 1) if rng.random() < 0.6
                  else self.plain_leaf(scope))
        if rng.random() < 0.2:
            second = NotP(second)
        combine = AndP if shape == "and" else OrP
        return combine(first, second)


def _first_sub_table(node) -> str | None:
    if isinstance(node, (ExistsP, InP, QuantCmp, ScalarCmp)):
        return node.sub.table
    if isinstance(node, NotP):
        return _first_sub_table(node.operand)
    if isinstance(node, (AndP, OrP)):
        return _first_sub_table(node.left) or _first_sub_table(node.right)
    return None


def random_query(
    rng: random.Random, config: GrammarConfig | None = None
) -> QueryIR:
    """Draw one outer query over table B with a random subquery predicate."""
    config = config or GrammarConfig()
    builder = _QueryBuilder(rng, config)
    scope = _Scope("b", "B")
    predicate = builder.outer_predicate(scope)
    # Drawn after the predicate, so a seed's WHERE clause is the one it
    # had before the grammar knew SELECT-list subqueries.
    select_subs: tuple[Sub, ...] = ()
    if rng.random() < config.select_list_probability:
        select_subs = builder.select_list(scope)
        beside = rng.random()
        if beside >= 0.5:
            predicate = builder.plain_leaf(scope) if beside < 0.8 else None
    return QueryIR("B", "b", ("k", "x", "s"), predicate, select_subs)
