"""The row kernel: one tuple-at-a-time scan of the detail relation.

Over operands the node evaluator (:mod:`repro.gmdj.physical`) has
materialized, :func:`run_gmdj` — the reference every other kernel is
held to — factors every θ block
into hash-key equality conjuncts plus a residual
(:func:`repro.algebra.analysis.factor_condition`), hashes the base rows
once **per hash block** (a Python dict of key tuple → base positions,
built when the kernel prepares to scan), and then makes a **single
pass** over the detail relation.  Each detail tuple probes the per-block
structure for candidate base tuples, the residual is applied, and
matching base tuples have their accumulators updated incrementally.
The python batch kernel probes the same per-block dicts; the array
kernel (:mod:`repro.gmdj.npkernel`) never builds them — it matches keys
over the base relation's key *columns*, one structure per distinct key
list.

Every kernel finalizes its per-base-tuple aggregate state into one
**column** per aggregate.  This kernel and the python batch kernel then
assemble tuples: :func:`_emit_rows` zips base rows ++ aggregate columns
for the rows that survive (doomed rows dropped, ACTIVE rows held to the
fused selection).  The array kernel builds none — it hands the gathered
columns on as a column-backed relation
(:meth:`repro.gmdj.npkernel.ArrayScan.emit`).

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
from itertools import compress, repeat
from typing import Callable, Iterable, Sequence

from repro.algebra.aggregates import Accumulator, AggregateBlock
from repro.algebra.analysis import factor_condition, refers_only_to
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

#: ``status.translate(_EMITTED)``: 1 for every base row that is not doomed.
_EMITTED = bytes.maketrans(bytes([_ACTIVE, _ASSURED, _DOOMED]),
                           b"\x01\x01\x00")

#: Per θ block (``None`` for a block that keeps no accumulator objects),
#: one accumulator list per base tuple.
BlockStates = list[list[list[Accumulator]] | None]

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


def _bucket_base_rows(base_rows: Sequence[tuple],
                      key_evals: Sequence[Callable]) -> dict[tuple, list[int]]:
    """Hash the base rows on a block's equality attributes (§2.3).

    A NULL key component puts the row in no bucket: SQL equality never
    matches it.
    """
    buckets: dict[tuple, list[int]] = {}
    for position, row in enumerate(base_rows):
        key = tuple(ev(row) for ev in key_evals)
        if any(part is None for part in key):
            continue
        buckets.setdefault(key, []).append(position)
    return buckets


class _BlockRuntime:
    """Per-θ-block bound state: hash table, active-list, or invariant path.

    A block whose condition references only detail attributes is
    *invariant* (Rao & Ross's "reusing invariants", which the paper cites
    as one of the optimization schemes the GMDJ generalizes): its range
    is identical for every base tuple, so its aggregates are computed
    once over the detail scan and shared.  Invariant sharing is only
    engaged when no completion rule is active (completion bookkeeping is
    per-base-tuple), and never for a block holding ``single``, which
    raises per base tuple (an empty base raises nothing).

    ``factored`` is the block's θ split into hash-key conjuncts and a
    residual, once per scan; every kernel reads it.  The row evaluators
    (``residual_eval`` and the key evaluators of both sides),
    ``buckets`` — the Python hash table of a hash block — and
    ``shared_state`` — an invariant block's one accumulator list — are
    built by :meth:`prepare_python_scan`, and the aggregate arguments on
    the block's first :meth:`AggregateBlock.update`: the row and python
    kernels do both before or during their scan, the array kernel
    neither.  ``index_builds`` counts the logical build, one per hash
    block, whichever kernel runs.
    """

    __slots__ = ("index", "aggregates", "factored", "residual_eval",
                 "right_key_evals", "uses_hash", "invariant", "buckets",
                 "shared_state", "_base", "_detail_schema",
                 "_combined_schema", "_left_key_evals", "_rows_bound")

    def __init__(self, index: int, block: ThetaBlock, base: Relation,
                 detail_schema: Schema, combined_schema: Schema,
                 allow_invariant: bool):
        self.index = index
        self.aggregates = AggregateBlock(block.aggregates, detail_schema)
        self.factored = factored = factor_condition(
            block.condition, base.schema, detail_schema)
        self.uses_hash = factored.has_equality
        self.invariant = (
            allow_invariant
            and _INVARIANT_SHARING
            and not self.uses_hash
            and not block.holds_single
            and (factored.residual is None
                 or refers_only_to(factored.residual, detail_schema))
        )
        # (Read row-wise only by the methods below: the array kernel
        # calls none of them for a block it takes, so a column-backed
        # base is never transposed on its account.)
        self._base = base
        self._detail_schema = detail_schema
        self._combined_schema = combined_schema
        self.residual_eval: Callable | None = None
        self.right_key_evals: list[Callable] = []
        self._left_key_evals: list[Callable] = []
        self._rows_bound = False
        self.buckets: dict[tuple, list[int]] | None = None
        self.shared_state: list[Accumulator] | None = None
        if self.uses_hash:
            IOStats.ambient().index_builds += 1

    def _bind_rows(self) -> None:
        """Bind the residual and both sides' key evaluators to rows."""
        self._rows_bound = True
        factored = self.factored
        if factored.residual is not None:
            self.residual_eval = factored.residual.bind(
                self._detail_schema if self.invariant
                else self._combined_schema)
        if self.uses_hash:
            self._left_key_evals = [key.bind(self._base.schema)
                                    for key in factored.left_keys]
            self.right_key_evals = [key.bind(self._detail_schema)
                                    for key in factored.right_keys]

    def prepare_python_scan(self) -> None:
        """Build what a tuple-at-a-time scan probes (idempotent)."""
        if not self._rows_bound:
            self._bind_rows()
        if self.uses_hash and self.buckets is None:
            self.buckets = _bucket_base_rows(self._base.rows,
                                             self._left_key_evals)
        if self.invariant and self.shared_state is None:
            self.shared_state = self.aggregates.new_state()

    def new_states(self) -> list[list[Accumulator]]:
        """Fresh accumulator objects, one list per base tuple."""
        new_state = self.aggregates.new_state
        return [new_state() for _ in range(len(self._base))]

    def finalized_columns(
        self, states: list[list[Accumulator]] | None
    ) -> list[list]:
        """This block's accumulators as one value column per aggregate
        (an invariant block's shared values repeat for every base row)."""
        if self.shared_state is not None:
            return [[value] * len(self._base)
                    for value in AggregateBlock.finalize(self.shared_state)]
        assert states is not None
        return [[accumulators[position].result() for accumulators in states]
                for position in range(len(self.aggregates.specs))]


def _scan_detail(
    detail_rows: Iterable[tuple],
    runtimes: list[_BlockRuntime],
    base_rows: Sequence[tuple],
    state: BlockStates,
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

    Returns the (possibly compacted) active list so a batching caller —
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
            for block_index in block_ids:
                runtimes[block_index].aggregates.update(
                    state[block_index][base_index], detail_row
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


def _surviving_rows(
    base_rows: Sequence[tuple],
    status: bytearray,
    columns: Sequence[list],
    selection_eval: Callable | None,
    stats: IOStats,
) -> bytearray | None:
    """Which base rows are emitted (1/0 per row; None = all), row-wise.

    Doomed rows are gone; assured rows bypass the final selection (their
    counts are partial but projected away); active rows carry exact
    aggregates and face the real selection.
    """
    if selection_eval is None:
        return status.translate(_EMITTED) if any(status) else None
    keep = status.translate(_EMITTED)
    aggregates = zip(*columns) if columns else repeat(())
    for position, (verdict, base_row, values) in enumerate(
            zip(status, base_rows, aggregates)):
        if verdict == _ACTIVE:
            stats.predicate_evals += 1
            if not selection_eval(base_row + values).is_true:
                keep[position] = 0
    return keep


def _emit_rows(
    base_rows: Sequence[tuple],
    columns: Sequence[list],
    keep: Sequence[int] | None,
    output_schema: Schema,
    stats: IOStats,
) -> Relation:
    """The emit phase of every kernel: base rows ++ aggregate columns.

    ``columns`` holds one finalized value list per output aggregate,
    ``keep`` one truthy/falsy verdict per base row (None keeps all).
    """
    selected: Iterable[tuple] = base_rows
    aggregates: Sequence[Iterable] = columns
    if keep is not None:
        selected = compress(base_rows, keep)
        aggregates = [compress(column, keep) for column in columns]
    if aggregates:
        out_rows = [base_row + values
                    for base_row, values in zip(selected, zip(*aggregates))]
    else:
        out_rows = list(selected)
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
    for runtime in runtimes:
        runtime.prepare_python_scan()
    state: BlockStates = [
        None if runtime.invariant else runtime.new_states()
        for runtime in runtimes
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
        stats.detail_scans += 1
        _scan_detail(
            detail.rows, runtimes, base_rows, state, status, stats,
            must_be_zero, pair_equal, can_doom, can_assure,
            remaining_needs, active_list,
        )

    columns = [
        column
        for runtime, states in zip(runtimes, state)
        for column in runtime.finalized_columns(states)
    ]
    selection_eval = selection.bind(output_schema) if selection is not None else None
    keep = _surviving_rows(base_rows, status, columns, selection_eval, stats)
    return _emit_rows(base_rows, columns, keep, output_schema, stats)


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
