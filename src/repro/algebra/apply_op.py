"""The APPLY operator of Galindo-Legaria & Joshi (VLDB 2001).

Section 2.1 of the paper notes the translation rules "are not dependent
on the use of this nested algebra; … we could map to GMDJs from the
*APPLY* operator (used to represent looping subquery evaluation) of [14]
in the same way", and the conclusion suggests adding GMDJ-based
"alternate correlation removal rules for the APPLY operator" to a
cost-based optimizer.  This module implements exactly that:

* :class:`Apply` — the looping operator: for every input tuple, evaluate
  a parameterized subquery and combine per the mode:

  - ``semi`` / ``anti``  — keep the tuple iff the subquery is non-empty /
    empty (the EXISTS / NOT EXISTS shapes);
  - ``scalar``           — extend the tuple with the subquery's single
    value (NULL on empty; error on >1 row);
  - ``aggregate``        — extend the tuple with an aggregate of the
    subquery's item over its qualifying rows.

* :func:`apply_to_gmdj` — the GMDJ-based correlation removal: rewrite an
  Apply into a (fused selection over a) GMDJ using the same counting
  rules as Table 1, making the whole Section 3 machinery available to an
  APPLY-based optimizer; :func:`loop_reason` says which Applies it
  cannot take.

* :func:`has_subquery_form` — the one predicate the planner asks before
  translating: does the plan hold a NestedSelect or an Apply.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra.aggregates import AggregateSpec, count_star
from repro.algebra.expressions import Column, Comparison, Literal
from repro.algebra.nested import (
    LoopEvaluator,
    NestedSelect,
    Subquery,
    env_with_row,
    has_subqueries,
)
from repro.algebra.operators import Operator, Project, Select
from repro.errors import PlanError, TranslationError
from repro.gmdj.operator import GMDJ, ThetaBlock
from repro.storage.catalog import Catalog
from repro.storage.iostats import IOStats
from repro.storage.relation import Relation
from repro.storage.schema import Field, Schema

APPLY_MODES = ("semi", "anti", "scalar", "aggregate")


@dataclass
class Apply(Operator):
    """``input APPLY subquery`` with looping (tuple-at-a-time) semantics.

    ``subquery`` is a :class:`~repro.algebra.nested.Subquery` whose
    predicate may reference the input's attributes (the correlation).
    ``output_name`` names the added column for scalar/aggregate modes.
    """

    input: Operator
    subquery: Subquery
    mode: str = "semi"
    output_name: str = "value"

    def __post_init__(self) -> None:
        if self.mode not in APPLY_MODES:
            raise PlanError(f"unknown APPLY mode {self.mode!r}")
        if self.mode == "scalar" and self.subquery.item is None:
            raise PlanError("scalar APPLY needs a subquery item")
        if self.mode == "aggregate" and self.subquery.aggregate is None:
            raise PlanError("aggregate APPLY needs a subquery aggregate")

    def children(self) -> tuple[Operator, ...]:
        return (self.input,)

    def _output_field(self, catalog: Catalog) -> Field:
        inner_schema = self.subquery.source_schema(catalog)
        if self.mode == "aggregate":
            spec = self.subquery.aggregate
            assert spec is not None
            base_field = spec.output_field(inner_schema)
            return Field(self.output_name, base_field.dtype)
        item = self.subquery.item
        assert item is not None
        from repro.algebra.operators import infer_dtype

        return Field(self.output_name, infer_dtype(item, inner_schema))

    def schema(self, catalog: Catalog) -> Schema:
        input_schema = self.input.schema(catalog)
        if self.mode in ("semi", "anti"):
            return input_schema
        return input_schema.extend([self._output_field(catalog)])

    def evaluate(self, catalog: Catalog) -> Relation:
        source = self.input.evaluate(catalog)
        loop = LoopEvaluator(catalog, early_exit=True)
        stats = IOStats.ambient()
        stats.record_scan(len(source))
        rows = []
        for row in source.rows:
            env = env_with_row({}, source.schema, row)
            if self.mode in ("semi", "anti"):
                if loop.exists(self.subquery, env) == (self.mode == "semi"):
                    rows.append(row)
            else:
                rows.append(row + (loop.scalar(self.subquery, env),))
        stats.tuples_output += len(rows)
        return Relation(self.schema(catalog), rows, validate=False)


def has_subquery_form(plan: Operator) -> bool:
    """True when ``plan`` holds a subquery the binder left in place: a
    :class:`~repro.algebra.nested.NestedSelect` (WHERE position) or an
    :class:`Apply` (SELECT-list position).  Algorithm SubqueryToGMDJ has
    work to do exactly when this holds."""
    return isinstance(plan, (NestedSelect, Apply)) or any(
        has_subquery_form(child) for child in plan.children()
    )


def loop_reason(apply: Apply) -> str | None:
    """Why ``apply`` has no counting-only GMDJ form, or None when it has.

    * ``"nested inner predicate"`` — the subquery predicate itself holds
      subqueries (the inner blocks would have to be flattened first);
    * ``"scalar item"`` — a non-aggregate value: the looping form raises
      on more than one row, which counting alone cannot.
    """
    if has_subqueries(apply.subquery.predicate):
        return "nested inner predicate"
    if apply.mode == "scalar":
        return "scalar item"
    return None


def apply_to_gmdj(apply: Apply, catalog: Catalog,
                  count_name: str = "__apply_cnt") -> Operator:
    """Correlation removal for APPLY via the GMDJ (the paper's proposal).

    * ``semi``      →  ``π[input] σ[cnt > 0] MD(input, R, count(*), θ)``
    * ``anti``      →  ``π[input] σ[cnt = 0] MD(input, R, count(*), θ)``
    * ``aggregate`` →  ``MD(input, R, f(y) → name, θ)``

    Raises :class:`TranslationError` for an Apply that
    :func:`loop_reason` gives a reason for: the subquery predicate must
    be subquery-free and neighboring, and a ``scalar`` Apply is not
    expressible by counting alone (the Table 1 comparison rule carries
    the paper's "at most one row" proviso instead).
    """
    from repro.algebra.rewrite import qualify_references

    reason = loop_reason(apply)
    if reason is not None:
        raise TranslationError(
            f"APPLY with a {reason} has no counting-only GMDJ form"
        )
    subquery = apply.subquery
    input_schema = apply.input.schema(catalog)
    detail_schema = subquery.source.schema(catalog)
    predicate = qualify_references(subquery.predicate, detail_schema)
    if apply.mode == "aggregate":
        spec = subquery.aggregate
        assert spec is not None
        argument = (
            qualify_references(spec.argument, detail_schema)
            if spec.argument is not None else None
        )
        renamed = AggregateSpec(spec.function, argument, apply.output_name,
                                spec.distinct)
        return GMDJ(apply.input, subquery.source,
                    [ThetaBlock([renamed], predicate)])
    gmdj = GMDJ(apply.input, subquery.source,
                [ThetaBlock([count_star(count_name)], predicate)])
    op = ">" if apply.mode == "semi" else "="
    selected = Select(gmdj, Comparison(op, Column(count_name), Literal(0)))
    return Project(selected, list(input_schema.names))
