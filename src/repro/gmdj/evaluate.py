"""The row kernel: one tuple-at-a-time scan of the detail relation.

Over operands the node evaluator (:mod:`repro.gmdj.physical`) has
materialized, :func:`run_gmdj` — the reference every other kernel is
held to — factors every θ block
into hash-key equality conjuncts plus a residual
(:func:`repro.algebra.analysis.factor_condition`), builds one hash table
over the base rows per distinct key set, and then makes a **single pass**
over the detail relation.  Each detail tuple probes the per-block structure
for candidate base tuples, the residual is applied, and matching base
tuples have their accumulators updated incrementally.

θ blocks with no equality conjunct (e.g. the ``<>`` correlation of the
paper's Figure 4) degrade to testing every *active* base tuple per detail
tuple — this is the behaviour the paper reports as "essentially mimicking
tuple-iteration semantics", and it is exactly what base-tuple completion
(:mod:`repro.gmdj.completion`) repairs: doomed/assured tuples leave the
active set, which physically shrinks as the scan proceeds.

:class:`SelectGMDJ` is the fused ``σ[C](MD(...))`` operator produced by the
optimizer when a completion rule applies; it must own the selection because
early-doomed tuples carry partial counts that the selection could not be
trusted to reject afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from repro.algebra.aggregates import AggregateBlock
from repro.algebra.analysis import factor_condition
from repro.algebra.expressions import Expression
from repro.algebra.operators import Operator
from repro.gmdj.completion import CompletionRule
from repro.gmdj.operator import GMDJ, ThetaBlock
from repro.obs.tracer import span
from repro.storage.catalog import Catalog
from repro.storage.iostats import IOStats
from repro.storage.relation import Relation
from repro.storage.schema import Schema

_ACTIVE, _ASSURED, _DOOMED = 0, 1, 2

#: Global switch for invariant-block sharing (Rao & Ross reuse); exposed
#: so the ablation benchmark can measure the optimization's contribution.
_INVARIANT_SHARING = True


class invariant_sharing:
    """Context manager toggling invariant-block sharing (for ablations)."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self._previous = True

    def __enter__(self) -> "invariant_sharing":
        global _INVARIANT_SHARING
        self._previous = _INVARIANT_SHARING
        _INVARIANT_SHARING = self.enabled
        return self

    def __exit__(self, *exc_info: object) -> None:
        global _INVARIANT_SHARING
        _INVARIANT_SHARING = self._previous


class _BlockRuntime:
    """Per-θ-block bound state: hash table, active-list, or invariant path.

    A block whose condition references only detail attributes is
    *invariant* (Rao & Ross's "reusing invariants", which the paper cites
    as one of the optimization schemes the GMDJ generalizes): its range
    is identical for every base tuple, so its aggregates are computed
    once over the detail scan and shared.  Invariant sharing is only
    engaged when no completion rule is active (completion bookkeeping is
    per-base-tuple).
    """

    __slots__ = ("index", "aggregates", "residual_eval", "right_key_evals",
                 "buckets", "uses_hash", "invariant", "shared_state")

    def __init__(self, index: int, block: ThetaBlock, base: Relation,
                 detail_schema: Schema, combined_schema: Schema,
                 allow_invariant: bool):
        from repro.algebra.analysis import refers_only_to

        self.index = index
        self.aggregates = AggregateBlock(block.aggregates, detail_schema)
        factored = factor_condition(block.condition, base.schema, detail_schema)
        self.uses_hash = factored.has_equality
        self.invariant = (
            allow_invariant
            and _INVARIANT_SHARING
            and not self.uses_hash
            and (factored.residual is None
                 or refers_only_to(factored.residual, detail_schema))
        )
        self.shared_state = self.aggregates.new_state() if self.invariant else None
        if factored.residual is None:
            self.residual_eval = None
        elif self.invariant:
            self.residual_eval = factored.residual.bind(detail_schema)
        else:
            self.residual_eval = factored.residual.bind(combined_schema)
        if self.uses_hash:
            left_key_evals = [k.bind(base.schema) for k in factored.left_keys]
            self.right_key_evals = [k.bind(detail_schema) for k in factored.right_keys]
            buckets: dict[tuple, list[int]] = {}
            for position, row in enumerate(base.rows):
                key = tuple(ev(row) for ev in left_key_evals)
                if any(part is None for part in key):
                    continue
                buckets.setdefault(key, []).append(position)
            self.buckets = buckets
            IOStats.ambient().index_builds += 1
        else:
            self.right_key_evals = None
            self.buckets = None


def _scan_detail(
    detail_rows: Iterable[tuple],
    runtimes: list[_BlockRuntime],
    base_rows: Sequence[tuple],
    state: list[list[Any]],
    status: bytearray,
    stats: IOStats,
    must_be_zero: frozenset,
    pair_equal: tuple,
    can_doom: bool,
    can_assure: bool,
    remaining_needs: list[dict[int, int]] | None,
    active_list: list[int] | None,
) -> list[int] | None:
    """The single pass over the detail rows (the hot loop).

    Returns the (possibly compacted) active list so a chunked caller —
    the vectorized kernel's completion path scans chunk by chunk — can
    carry the shrinking set across calls.
    """
    stale = 0
    for detail_row in detail_rows:
        matched: dict[int, list[int]] = {}
        for runtime in runtimes:
            if runtime.invariant:
                if runtime.residual_eval is not None:
                    stats.predicate_evals += 1
                    if not runtime.residual_eval(detail_row).is_true:
                        continue
                runtime.aggregates.update(runtime.shared_state, detail_row)
                continue
            if runtime.uses_hash:
                key = tuple(ev(detail_row) for ev in runtime.right_key_evals)
                stats.index_probes += 1
                candidates = runtime.buckets.get(key)
                if candidates is None:
                    continue
            else:
                candidates = active_list
            residual_eval = runtime.residual_eval
            block_index = runtime.index
            for base_index in candidates:
                if status[base_index] != _ACTIVE:
                    continue
                if residual_eval is not None:
                    stats.predicate_evals += 1
                    verdict = residual_eval(base_rows[base_index] + detail_row)
                    if not verdict.is_true:
                        continue
                matched.setdefault(base_index, []).append(block_index)
        if not matched:
            continue
        for base_index, block_ids in matched.items():
            if can_doom:
                doomed = any(i in must_be_zero for i in block_ids)
                if not doomed:
                    for restrictive, weak in pair_equal:
                        if weak in block_ids and restrictive not in block_ids:
                            doomed = True
                            break
                if doomed:
                    status[base_index] = _DOOMED
                    stats.completed_tuples += 1
                    stale += 1
                    continue
            row_state = state[base_index]
            for block_index in block_ids:
                runtimes[block_index].aggregates.update(
                    row_state[block_index], detail_row
                )
            if can_assure:
                needs = remaining_needs[base_index]
                if needs:
                    for block_index in block_ids:
                        remaining = needs.get(block_index)
                        if remaining is None:
                            continue
                        if remaining <= 1:
                            del needs[block_index]
                        else:
                            needs[block_index] = remaining - 1
                    if not needs:
                        status[base_index] = _ASSURED
                        stats.completed_tuples += 1
                        stale += 1
        if active_list is not None and stale * 2 > len(active_list) and stale > 32:
            active_list = [i for i in active_list if status[i] == _ACTIVE]
            stale = 0
    return active_list


def _emit_rows(
    base_rows: Sequence[tuple],
    status: bytearray,
    state: list[list[Any]],
    shared_values: dict,
    selection_eval: Callable | None,
    output_schema: Schema,
    stats: IOStats,
) -> Relation:
    """The emit phase shared by the row and vectorized kernels.

    Doomed rows are gone; assured rows bypass the final selection (their
    counts are partial but projected away); active rows carry exact
    aggregates and face the real selection.  Invariant blocks contribute
    the same ``shared_values`` to every base row.
    """
    out_rows = []
    for base_index, base_row in enumerate(base_rows):
        verdict = status[base_index]
        if verdict == _DOOMED:
            continue
        out_row = base_row + tuple(
            value
            for block_index, block_state in enumerate(state[base_index])
            for value in shared_values.get(
                block_index, AggregateBlock.finalize(block_state)
            )
        )
        if verdict == _ACTIVE and selection_eval is not None:
            stats.predicate_evals += 1
            if not selection_eval(out_row).is_true:
                continue
        out_rows.append(out_row)
    stats.tuples_output += len(out_rows)
    return Relation(output_schema, out_rows, validate=False)


def run_gmdj(
    base: Relation,
    detail: Relation,
    gmdj: GMDJ,
    output_schema: Schema,
    rule: CompletionRule | None = None,
    selection: Expression | None = None,
) -> Relation:
    """Evaluate a GMDJ over materialized inputs in one detail scan.

    With ``rule``/``selection`` set this computes the fused
    ``σ[selection](MD(...))`` using base-tuple completion; otherwise it is
    the plain operator of Definition 2.1.
    """
    stats = IOStats.ambient()
    detail_schema = detail.schema
    combined_schema = base.schema.concat(detail_schema)
    runtimes = [
        _BlockRuntime(i, block, base, detail_schema, combined_schema,
                      allow_invariant=rule is None)
        for i, block in enumerate(gmdj.blocks)
    ]
    base_rows = base.rows
    n_base = len(base_rows)
    state = [
        [runtime.aggregates.new_state() for runtime in runtimes]
        for _ in range(n_base)
    ]
    status = bytearray(n_base)  # all _ACTIVE

    must_be_zero = frozenset(rule.must_be_zero) if rule else frozenset()
    pair_equal = tuple(rule.pair_equal) if rule else ()
    can_doom = rule.can_doom if rule else False
    can_assure = rule.can_assure if rule else False
    thresholds = rule.thresholds() if can_assure else {}
    remaining_needs = (
        [dict(thresholds) for _ in range(n_base)] if can_assure else None
    )

    # Active list serving the non-hash blocks; rebuilt lazily as tuples
    # complete so that the per-detail-tuple cost genuinely shrinks.
    any_scan_block = any(
        not runtime.uses_hash and not runtime.invariant
        for runtime in runtimes
    )
    active_list = list(range(n_base)) if any_scan_block else None

    with span("scan", kind="detail_scan",
              relation=getattr(detail, "name", None) or "<derived>",
              rows=len(detail)):
        stats.record_scan(len(detail))
        _scan_detail(
            detail.rows, runtimes, base_rows, state, status, stats,
            must_be_zero, pair_equal, can_doom, can_assure,
            remaining_needs, active_list,
        )

    shared_values = {
        runtime.index: AggregateBlock.finalize(runtime.shared_state)
        for runtime in runtimes
        if runtime.invariant
    }
    selection_eval = selection.bind(output_schema) if selection is not None else None
    return _emit_rows(base_rows, status, state, shared_values,
                      selection_eval, output_schema, stats)


@dataclass
class SelectGMDJ(Operator):
    """Fused ``σ[selection](MD(...))`` with base-tuple completion.

    Produced by the optimizer (see :mod:`repro.gmdj.coalesce`); can also be
    built directly.  The output schema equals the underlying GMDJ's schema;
    rows failing ``selection`` are absent, and when the rule permits
    assurance the aggregate columns of assured rows are partial (the rule
    guarantees an enclosing projection discards them).
    """

    gmdj: GMDJ
    selection: Expression
    rule: CompletionRule | None = None

    def children(self) -> tuple[Operator, ...]:
        return (self.gmdj,)

    def schema(self, catalog: Catalog) -> Schema:
        return self.gmdj.schema(catalog)

    def evaluate(self, catalog: Catalog) -> Relation:
        from repro.gmdj.physical import evaluate_node

        return evaluate_node(self, catalog)
