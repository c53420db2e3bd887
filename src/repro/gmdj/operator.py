"""The Generalized Multi-Dimensional Join operator (GMDJ).

``MD(B, R, (l_1..l_m), (θ_1..θ_m))`` extends every tuple ``b`` of the
*base-values relation* B with the aggregates of each list ``l_i`` computed
over ``RNG(b, R, θ_i)`` — the detail tuples satisfying θ_i for b
(Definition 2.1 of the paper).  The operator's salient properties, all
reflected in this implementation:

* output size is bounded by ``|B|`` — one output tuple per base tuple;
* the detail relation R is consumed in a **single scan** regardless of how
  many (θ, l) blocks the operator carries;
* grouping (B, θ) is cleanly separated from aggregation (l), so multiple
  subqueries over the same detail table coalesce into one operator.

:class:`GMDJ` is a logical node implementing the flat-algebra ``Operator``
protocol; evaluation lives in :mod:`repro.gmdj.physical` (the node
evaluator) and :mod:`repro.gmdj.evaluate` (the reference row kernel).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.algebra.aggregates import AggregateSpec
from repro.algebra.expressions import Expression
from repro.algebra.operators import Operator
from repro.errors import SchemaError
from repro.storage.catalog import Catalog
from repro.storage.relation import Relation
from repro.storage.schema import Field, Schema


@dataclass
class ThetaBlock:
    """One ``(l_i, θ_i)`` pair: aggregates over ``RNG(b, R, θ_i)``."""

    aggregates: list[AggregateSpec]
    condition: Expression

    def output_fields(self, detail_schema: Schema) -> list[Field]:
        return [spec.output_field(detail_schema) for spec in self.aggregates]

    @property
    def holds_single(self) -> bool:
        """Whether a ``single`` aggregate raises per base tuple here."""
        return any(spec.function == "single" for spec in self.aggregates)


@dataclass
class GMDJ(Operator):
    """``MD(base, detail, (l_1..l_m), (θ_1..θ_m))`` as a logical operator."""

    base: Operator
    detail: Operator
    blocks: list[ThetaBlock]

    def __post_init__(self) -> None:
        names = [
            spec.output_name for block in self.blocks for spec in block.aggregates
        ]
        if len(names) != len(set(names)):
            raise SchemaError(
                f"duplicate aggregate output names in GMDJ: {names}"
            )
        if not self.blocks:
            raise SchemaError("a GMDJ needs at least one (l, theta) block")

    def children(self) -> tuple[Operator, ...]:
        return (self.base, self.detail)

    @property
    def holds_single(self) -> bool:
        """Whether a block holds ``single``: it raises iff some base tuple
        has two θ-rows, so no rewrite may change the base rows it sees."""
        return any(block.holds_single for block in self.blocks)

    def output_names(self) -> list[str]:
        """The aggregate output attribute names, in schema order."""
        return [
            spec.output_name for block in self.blocks for spec in block.aggregates
        ]

    def schema(self, catalog: Catalog) -> Schema:
        base_schema = self.base.schema(catalog)
        detail_schema = self.detail.schema(catalog)
        extra = []
        for block in self.blocks:
            extra.extend(block.output_fields(detail_schema))
        return base_schema.extend(extra)

    def evaluate(self, catalog: Catalog) -> Relation:
        from repro.gmdj.physical import evaluate_node

        return evaluate_node(self, catalog)

    def __repr__(self) -> str:
        parts = ", ".join(
            f"({block.aggregates!r}, {block.condition!r})" for block in self.blocks
        )
        return f"MD({self.base!r}, {self.detail!r}, [{parts}])"


def md(
    base: Operator,
    detail: Operator,
    aggregate_lists: Sequence[Sequence[AggregateSpec]],
    conditions: Sequence[Expression],
) -> GMDJ:
    """Construct a GMDJ in the paper's argument order.

    ``md(B, R, (l1, l2), (theta1, theta2))`` mirrors
    ``MD(B, R, (l_1, l_2), (θ_1, θ_2))``.
    """
    if len(aggregate_lists) != len(conditions):
        raise SchemaError(
            f"{len(aggregate_lists)} aggregate lists but "
            f"{len(conditions)} conditions"
        )
    blocks = [
        ThetaBlock(list(aggs), condition)
        for aggs, condition in zip(aggregate_lists, conditions)
    ]
    return GMDJ(base, detail, blocks)
