"""Partitioned (parallel/distributed) GMDJ evaluation.

The paper's conclusion notes that "the GMDJ operator is well-suited to
evaluation in a parallel or distributed DBMS environment [3]".  The
underlying algebraic fact is simple and exploited here:

    MD(B, R1 ∪ R2, l, θ)  =  merge(MD(B, R1, l, θ), MD(B, R2, l, θ))

where *merge* combines the per-base-tuple aggregate values columnwise
(counts and sums add, min/min, max/max; AVG is decomposed into SUM and
COUNT first since finalized averages do not merge).  The detail relation
is split into ``partitions`` horizontal fragments, each fragment is
evaluated independently against the same (replicated) base-values
relation — one scan per fragment — and the partial results are merged
before finalization.

Two execution regimes share that decomposition:

* ``workers=1`` (default) evaluates the fragments sequentially
  in-process: it demonstrates, and the tests pin down, the *correctness*
  of the partition/merge split and its work profile — total tuples
  scanned equal the single-scan evaluation, i.e. parallelism costs no
  extra passes over the data.
* ``workers>1`` dispatches the fragments to a worker pool
  (:mod:`repro.gmdj.pool`): processes for large details (true multi-core
  speedup), threads for small ones.  Worker IOStats and trace spans are
  propagated back, so counters, EXPLAIN ANALYZE, and the invariant
  checker behave identically to the sequential path.

Completion-fused evaluation (``SelectGMDJ``) is deliberately not
partitioned: dooming decisions depend on global scan order, so the node
evaluator (:func:`repro.gmdj.physical.evaluate_node`) keeps fused nodes
on a single scan.  :class:`DetailPartitions` is the fragmenter that
evaluator applies around whatever kernel it was handed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.algebra.aggregates import AggregateSpec
from repro.errors import ConfigurationError
from repro.gmdj.operator import GMDJ, ThetaBlock
from repro.gmdj.pool import map_partitions
from repro.obs.tracer import span
from repro.storage.relation import Relation
from repro.storage.schema import Schema

#: Fragment count when only ``workers`` was requested.
DEFAULT_PARTITIONS = 4


def partition_rows(relation: Relation, partitions: int) -> list[Relation]:
    """Split a relation into ``partitions`` contiguous fragments.

    Fragments may be empty when the relation is smaller than the
    partition count; the merge is insensitive to fragment sizing.
    """
    if partitions < 1:
        raise ConfigurationError(f"partitions must be >= 1, got {partitions}")
    total = len(relation.rows)
    size = (total + partitions - 1) // partitions if total else 0
    fragments = []
    for index in range(partitions):
        chunk = relation.rows[index * size:(index + 1) * size] if size else []
        fragments.append(Relation(relation.schema, chunk, validate=False))
    return fragments


def _merge_add(left: Any, right: Any) -> Any:
    """Counts and sums: NULL means "no contribution"."""
    if left is None:
        return right
    if right is None:
        return left
    return left + right


def _merge_min(left: Any, right: Any) -> Any:
    if left is None:
        return right
    if right is None:
        return left
    return left if left <= right else right


def _merge_max(left: Any, right: Any) -> Any:
    if left is None:
        return right
    if right is None:
        return left
    return left if left >= right else right


_MERGERS = {"count": _merge_add, "sum": _merge_add,
            "min": _merge_min, "max": _merge_max}


def _shadow_plan(
    gmdj: GMDJ,
) -> tuple[GMDJ, list[str], list[tuple]]:
    """Rewrite AVG specs to SUM+COUNT so every output column merges.

    Returns ``(shadow_gmdj, merge_kinds, reconstruct)`` where
    ``merge_kinds[i]`` names the merge function of shadow aggregate
    column *i* and ``reconstruct`` maps each original output column to
    either ``("direct", shadow_name)`` or ``("avg", sum_name, cnt_name)``.
    """
    blocks: list[ThetaBlock] = []
    merge_kinds: list[str] = []
    reconstruct: list[tuple] = []
    serial = 0
    for block in gmdj.blocks:
        shadow_specs: list[AggregateSpec] = []
        for spec in block.aggregates:
            if spec.function == "avg":
                serial += 1
                sum_name = f"__psum{serial}"
                count_name = f"__pcnt{serial}"
                shadow_specs.append(AggregateSpec("sum", spec.argument,
                                                  sum_name))
                shadow_specs.append(AggregateSpec("count", spec.argument,
                                                  count_name))
                merge_kinds.extend(["sum", "count"])
                reconstruct.append(("avg", sum_name, count_name))
            else:
                shadow_specs.append(spec)
                merge_kinds.append(spec.function)
                reconstruct.append(("direct", spec.output_name))
        blocks.append(ThetaBlock(shadow_specs, block.condition))
    return GMDJ(gmdj.base, gmdj.detail, blocks), merge_kinds, reconstruct


@dataclass(frozen=True)
class DetailPartitions:
    """Split R into ``partitions`` fragments, scan each, merge columnwise.

    Bag-equivalent to the single-scan evaluation for any partition count
    and any worker count.  ``workers`` > 1 dispatches the fragments to a
    worker pool (:mod:`repro.gmdj.pool`) whose flavour ``executor``
    picks (``"thread"``/``"process"``/``"auto"``); 1 evaluates them
    sequentially in-process.
    """

    partitions: int
    workers: int = 1
    executor: str | None = None

    span_name = "GMDJ(partitioned)"
    span_kind = "gmdj_partitioned"

    def __post_init__(self) -> None:
        if self.partitions < 1:
            raise ConfigurationError(
                f"partitions must be >= 1, got {self.partitions}"
            )

    def span_attrs(self) -> dict[str, Any]:
        return {"partitions": self.partitions, "workers": self.workers}

    def run(
        self, kernel: Callable[..., Relation], base: Relation,
        detail: Relation, gmdj: GMDJ, output_schema: Schema,
        note: Callable[..., object],
    ) -> Relation:
        # Certificate gate: partition-and-merge is sound only for
        # decomposable (distributive/algebraic) aggregates.  Holistic
        # ones — the DISTINCT specs and single() — finalize to
        # unmergeable values; evaluate them in one scan (a distributed
        # engine would ship value sets, or rows).
        from repro.lint.absint import decomposable_aggregates

        if (self.partitions == 1 or len(detail) == 0
                or not decomposable_aggregates(gmdj)):
            note(partitions=1, workers=1)
            return kernel(base, detail, gmdj, output_schema)
        shadow, merge_kinds, reconstruct = _shadow_plan(gmdj)
        shadow_schema = base.schema.extend(
            field for block in shadow.blocks
            for field in block.output_fields(detail.schema)
        )
        fragments = partition_rows(detail, self.partitions)
        if self.workers > 1:
            partials = map_partitions(kernel, base, fragments, shadow,
                                      shadow_schema, self.workers,
                                      self.executor)
        else:
            partials = []
            for number, fragment in enumerate(fragments, start=1):
                with span(f"partition {number}", kind="partition",
                          detail_rows=len(fragment)):
                    partials.append(
                        kernel(base, fragment, shadow, shadow_schema).rows
                    )
        merged = _merge_partials(partials, merge_kinds, len(base.schema))
        return _finalize(merged, reconstruct, shadow_schema,
                         len(base.schema), output_schema)


def _merge_partials(
    partials: list[list], merge_kinds: list[str], base_arity: int
) -> list[list]:
    """Columnwise merge of per-fragment partial aggregate rows."""
    merged: list[list] | None = None
    for partial_rows in partials:
        if merged is None:
            merged = [list(row) for row in partial_rows]
            continue
        for row_state, row in zip(merged, partial_rows):
            for offset in range(base_arity, len(row)):
                merger = _MERGERS[merge_kinds[offset - base_arity]]
                row_state[offset] = merger(row_state[offset], row[offset])
    assert merged is not None
    return merged


def _finalize(
    merged: list[list],
    reconstruct: list[tuple],
    shadow_schema: Schema,
    base_arity: int,
    output_schema: Schema,
) -> Relation:
    """Map merged shadow columns back to the requested output columns."""
    shadow_index = {
        field.name: i for i, field in enumerate(shadow_schema.fields)
    }
    out_rows = []
    for row_state in merged:
        values = list(row_state[:base_arity])
        for entry in reconstruct:
            if entry[0] == "direct":
                values.append(row_state[shadow_index[entry[1]]])
            else:
                total = row_state[shadow_index[entry[1]]]
                count = row_state[shadow_index[entry[2]]]
                values.append(None if not count else total / count)
        out_rows.append(tuple(values))
    return Relation(output_schema, out_rows, validate=False)
