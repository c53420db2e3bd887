"""Columnar batch GMDJ kernels: the detail scan in fixed-size chunks.

The row kernel (:mod:`repro.gmdj.evaluate`) walks the detail relation
tuple-at-a-time, paying per-node closure dispatch for every hash key,
residual, and aggregate argument on every row.  This kernel amortizes
that overhead across *batches*:

* the detail relation is transposed once into a
  :class:`~repro.storage.columnar.ColumnarRelation` and scanned as
  fixed-size index chunks (``chunk_size`` rows at a time);
* hash keys, residual θ predicates, and aggregate arguments run as
  *compiled batch functions* (:mod:`repro.algebra.compile`) — one
  generated frame loops over the chunk instead of one closure chain per
  row;
* per-block aggregate accumulators are updated in bulk per chunk (a
  count(*) over a matching run collapses to one addition).

Everything observable is preserved: it remains a **single scan** of the
detail relation (one ``detail_scan`` span, identical
:class:`~repro.storage.iostats.IOStats` page/tuple accounting and
*identical* probe/predicate/update/completion counters, since batching
reorders work without changing how much of it happens), output stays
bounded by |B|, and the static cost certificate holds unchanged.

The python kernel probes one Python hash table over the base rows per
hash block, built before its scan, and keeps one
accumulator object per base tuple and aggregate; the numpy route
allocates neither for the blocks the array kernel takes — it matches
keys over the base relation's key columns (one structure per distinct
key list), keeps aggregate state in arrays and hands it over as
finalized columns.  Only a block the array kernel gives up on (a reason
in ``fallbacks``) gets buckets and accumulator objects.  The python
kernel ends in the row kernel's emit over columns
(:func:`repro.gmdj.evaluate._emit_rows`), deciding the fused selection
row by row; the numpy route decides it over columns and builds no tuple
at all — its output is a column-backed relation
(:meth:`repro.gmdj.npkernel.ArrayScan.emit`: base columns gathered by
the keep mask ++ the aggregates' array forms; a column some block
finalized per value in Python joins them through the storage encoder).

Completion runs (``rule`` set) take one of two routes.  The numpy
backend evaluates them whole-array (:mod:`repro.gmdj.npkernel`): a base
tuple's completion depends only on its own θ-matches in row order, so
it is a truncation of the (base, row) pair arrays at the tuple's first
completion row.  The python backend chunks the scan and runs the row
kernel's own ``_scan_detail`` per chunk with codegen'd row evaluators
swapped in, filtering the active set between chunks; that path is
counter-identical to the row kernel by construction, and it is where an
array scan falls back to when θ has no exact array form.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.algebra.aggregates import CountStar
from repro.algebra.compile import (
    compile_batch_keys,
    compile_batch_values,
    compile_detail_filter,
    compile_pair_filter,
    compile_row,
)
from repro.algebra.expressions import Expression
from repro.errors import ConfigurationError
from repro.gmdj.completion import CompletionRule
from repro.gmdj.evaluate import (
    _ACTIVE,
    _EMITTED,
    BlockStates,
    _BlockRuntime,
    _emit_rows,
    _scan_detail,
    _surviving_rows,
)
from repro.gmdj.operator import GMDJ, ThetaBlock
from repro.obs.tracer import span
from repro.storage.columnar import ColumnarRelation, cached_columnar
from repro.storage.iostats import IOStats
from repro.storage.relation import Relation
from repro.storage.schema import Schema

#: Default detail rows per batch.  Large enough to amortize the batch
#: function call overhead, small enough that per-chunk scratch (pending
#: lists, survivor lists) stays cache-resident.
DEFAULT_CHUNK_SIZE = 1024


def resolve_chunk_size(chunk_size: int | None) -> int:
    if chunk_size is None:
        return DEFAULT_CHUNK_SIZE
    if chunk_size < 1:
        raise ConfigurationError(
            f"chunk_size must be >= 1, got {chunk_size}"
        )
    return chunk_size


class _VectorBlock:
    """Batch-compiled companions of one :class:`_BlockRuntime`."""

    __slots__ = ("runtime", "key_batch", "filter_pair", "filter_detail",
                 "value_fns")

    def __init__(self, runtime: _BlockRuntime, block: ThetaBlock,
                 base: Relation, detail_schema: Schema) -> None:
        self.runtime = runtime
        factored = runtime.factored
        self.key_batch = (
            compile_batch_keys(factored.right_keys, detail_schema)
            if runtime.uses_hash else None
        )
        self.filter_pair = None
        self.filter_detail = None
        if factored.residual is not None:
            if runtime.invariant:
                self.filter_detail = compile_detail_filter(
                    factored.residual, detail_schema)
            else:
                self.filter_pair = compile_pair_filter(
                    factored.residual, base.schema, detail_schema)
        self.value_fns = [
            None if spec.argument is None
            else compile_batch_values(spec.argument, detail_schema)
            for spec in block.aggregates
        ]


def _bulk_update(state_list: Sequence[Any], value_fns: Sequence,
                 cols: Sequence, indices: Sequence[int],
                 stats: IOStats) -> None:
    """Fused accumulator update for every survivor of one chunk.

    Mirrors :meth:`AggregateBlock.update` applied once per index — same
    ``aggregate_updates`` total, same per-accumulator value order — but
    with one batch argument evaluation per spec and a constant-time fast
    path for count(*).
    """
    count = len(indices)
    for accumulator, value_fn in zip(state_list, value_fns):
        stats.aggregate_updates += count
        if value_fn is None:
            if type(accumulator) is CountStar:
                accumulator.count += count
            else:
                add = accumulator.add
                for _ in range(count):
                    add(None)
        else:
            add = accumulator.add
            for value in value_fn(cols, indices):
                add(value)


def _scan_batched(columnar: ColumnarRelation, vblocks: list[_VectorBlock],
                  base_rows: Sequence[tuple], state: BlockStates,
                  stats: IOStats, chunk_size: int) -> None:
    """The completion-free batch scan: every base tuple stays active.

    Operates on a pre-built columnar encoding so the numpy backend's
    per-block fallbacks reuse the array kernel's transposition
    (see :func:`repro.storage.columnar.cached_columnar`).
    """
    cols = columnar.value_columns()
    total = columnar.length
    n_base = len(base_rows)
    for number, start in enumerate(range(0, total, chunk_size), start=1):
        indices = range(start, min(start + chunk_size, total))
        with span(f"chunk {number}", kind="chunk_batch", rows=len(indices)):
            for vblock in vblocks:
                runtime = vblock.runtime
                if runtime.invariant:
                    if vblock.filter_detail is not None:
                        stats.predicate_evals += len(indices)
                        survivors = vblock.filter_detail(cols, indices)
                    else:
                        survivors = indices
                    if survivors:
                        _bulk_update(runtime.shared_state, vblock.value_fns,
                                     cols, survivors, stats)
                    continue
                block_state = state[runtime.index]
                filter_pair = vblock.filter_pair
                if runtime.uses_hash:
                    keys = vblock.key_batch(cols, indices)
                    stats.index_probes += len(indices)
                    buckets_get = runtime.buckets.get
                    pending: dict[int, list[int]] = {}
                    for i, key in zip(indices, keys):
                        candidates = buckets_get(key)
                        if candidates is None:
                            continue
                        for base_index in candidates:
                            matches = pending.get(base_index)
                            if matches is None:
                                pending[base_index] = [i]
                            else:
                                matches.append(i)
                    for base_index, matches in pending.items():
                        if filter_pair is not None:
                            stats.predicate_evals += len(matches)
                            matches = filter_pair(base_rows[base_index],
                                                  cols, matches)
                            if not matches:
                                continue
                        _bulk_update(block_state[base_index],
                                     vblock.value_fns, cols, matches, stats)
                else:
                    # Scan block, no completion: every base row is a
                    # candidate for every chunk (exactly the row kernel's
                    # full active list).
                    for base_index in range(n_base):
                        if filter_pair is not None:
                            stats.predicate_evals += len(indices)
                            matches = filter_pair(base_rows[base_index],
                                                  cols, indices)
                            if not matches:
                                continue
                        else:
                            matches = indices
                        _bulk_update(block_state[base_index],
                                     vblock.value_fns, cols, matches, stats)


def _recompile_runtimes(runtimes: list[_BlockRuntime],
                        detail_schema: Schema,
                        combined_schema: Schema) -> None:
    """Swap codegen'd row evaluators into row-kernel block runtimes.

    Used by the python backend's completion path: the scan logic stays
    the row kernel's, but every residual, hash key, and aggregate
    argument runs as one compiled frame instead of a closure chain.
    """
    for runtime in runtimes:
        factored = runtime.factored
        if factored.residual is not None:
            schema = detail_schema if runtime.invariant else combined_schema
            runtime.residual_eval = compile_row(factored.residual, schema)
        if runtime.uses_hash:
            runtime.right_key_evals = [
                compile_row(key, detail_schema)
                for key in factored.right_keys
            ]
        runtime.aggregates.recompile(
            lambda expr: compile_row(expr, detail_schema))


def _scan_completing(
    detail_rows: Sequence[tuple],
    runtimes: list[_BlockRuntime],
    base: Relation,
    detail_schema: Schema,
    combined_schema: Schema,
    state: BlockStates,
    status: bytearray,
    stats: IOStats,
    rule: CompletionRule,
    chunk_size: int,
) -> None:
    """The python backend's completion scan: the row kernel's own
    ``_scan_detail`` chunk by chunk, with codegen'd row evaluators
    swapped in and the active set filtered between chunks — counter-
    identical to the row kernel by construction."""
    _recompile_runtimes(runtimes, detail_schema, combined_schema)
    n_base = len(base.rows)
    must_be_zero = frozenset(rule.must_be_zero)
    pair_equal = tuple(rule.pair_equal)
    thresholds = rule.thresholds() if rule.can_assure else {}
    remaining_needs = (
        [dict(thresholds) for _ in range(n_base)]
        if rule.can_assure else None
    )
    any_scan_block = any(
        not runtime.uses_hash and not runtime.invariant
        for runtime in runtimes
    )
    active_list = list(range(n_base)) if any_scan_block else None
    for number, start in enumerate(range(0, len(detail_rows), chunk_size),
                                   start=1):
        chunk_rows = detail_rows[start:start + chunk_size]
        with span(f"chunk {number}", kind="chunk_batch",
                  rows=len(chunk_rows)):
            active_list = _scan_detail(
                chunk_rows, runtimes, base.rows, state, status,
                stats, must_be_zero, pair_equal, rule.can_doom,
                rule.can_assure, remaining_needs, active_list,
            )
        if active_list is not None:
            # Active-set filtering per chunk: completed tuples
            # leave the candidate set before the next batch.
            active_list = [i for i in active_list
                           if status[i] == _ACTIVE]


def run_gmdj_vectorized(
    base: Relation,
    detail: Relation,
    gmdj: GMDJ,
    output_schema: Schema,
    rule: CompletionRule | None = None,
    selection: Expression | None = None,
    chunk_size: int | None = None,
    backend: str = "python",
) -> Relation:
    """Batch-evaluate a GMDJ: :func:`run_gmdj`'s rows, in its order, with
    its counters (probes, predicate evaluations, aggregate updates,
    completed tuples, pages, tuples) — with or without a completion rule.

    ``backend`` is a resolved kernel name (:func:`repro.gmdj.physical.
    select_kernel` resolves ``auto``): the
    python kernel scans ``chunk_size`` detail rows per batch;
    ``backend="numpy"`` routes the θ blocks through the whole-array
    kernel (:mod:`repro.gmdj.npkernel`), completion, aggregate state and
    the fused selection included; blocks or aggregates without an exact
    array form fall back per operator (a whole completion scan falls
    back together: the rule couples its blocks) and the reasons land on
    the ``detail_scan`` span for EXPLAIN ANALYZE, next to how each hash
    block resolved its keys (``key_lookup``, ``shared_keys``,
    ``join_index``) and what θ admitted (``rows_admitted``,
    ``pairs_built``), and how each block ran (``forms``: ``pairs`` or
    ``range``, with ``range_index`` and ``range_declined``).
    """
    chunk_size = resolve_chunk_size(chunk_size)
    stats = IOStats.ambient()
    detail_schema = detail.schema
    combined_schema = base.schema.concat(detail_schema)
    runtimes = [
        _BlockRuntime(i, block, base, detail_schema, combined_schema,
                      allow_invariant=rule is None)
        for i, block in enumerate(gmdj.blocks)
    ]
    status = bytearray(len(base))
    total = len(detail)

    fallbacks: list[str] = []
    arrays = None
    with span("scan", kind="detail_scan",
              relation=getattr(detail, "name", None) or "<derived>",
              rows=total, vectorized=True, backend=backend,
              mask_skipped=0) as scan_span:
        stats.record_scan(total)
        stats.detail_scans += 1
        # Blocks still to run on the python kernel: all of them, unless
        # the array kernel takes some (or, under a rule, all) of them.
        block_pairs = list(zip(runtimes, gmdj.blocks))
        columnar = None
        if backend == "numpy" or rule is None:
            columnar = cached_columnar(detail)
            scan_span.set(mask_skipped=columnar.mask_free_columns())
        if backend == "numpy":
            from repro.gmdj.npkernel import run_numpy_scan

            arrays = run_numpy_scan(columnar, runtimes, gmdj.blocks, base,
                                    combined_schema, status, stats, rule)
            block_pairs, fallbacks = arrays.python_blocks, arrays.reasons
            # The array scan tiles by candidate pairs (``TILE_PAIRS``);
            # batch chunks are the python kernel's unit.
            scan_span.set(tiles=arrays.tiles)
            if arrays.key_lookup:
                scan_span.set(key_lookup=arrays.key_lookup,
                              shared_keys=arrays.shared_keys,
                              join_index=arrays.join_index,
                              rows_admitted=arrays.rows_admitted,
                              pairs_built=arrays.pairs_built)
            if arrays.forms:
                scan_span.set(forms=arrays.forms)
            if arrays.range_index:
                scan_span.set(range_index=arrays.range_index)
            if arrays.range_declined:
                scan_span.set(range_declined=arrays.range_declined)
        else:
            scan_span.set(chunks=-(-total // chunk_size) if total else 0,
                          chunk_size=chunk_size)
        # Hash buckets over B and accumulator objects exist only for
        # the python kernel's blocks.
        state: BlockStates = [None] * len(runtimes)
        for runtime, _ in block_pairs:
            runtime.prepare_python_scan()
            if not runtime.invariant:
                state[runtime.index] = runtime.new_states()
        if block_pairs and rule is None:
            vblocks = [
                _VectorBlock(runtime, block, base, detail_schema)
                for runtime, block in block_pairs
            ]
            _scan_batched(columnar, vblocks, base.rows, state, stats,
                          chunk_size)
        elif block_pairs:
            _scan_completing(detail.rows, runtimes, base,
                             detail_schema, combined_schema, state, status,
                             stats, rule, chunk_size)

    if arrays is not None and arrays.columns:
        # The array kernel took blocks: the node's output stays columns.
        aggregates = arrays.aggregate_columns(
            [column for runtime in runtimes for column in (
                arrays.columns[runtime.index]
                if runtime.index in arrays.columns
                else runtime.finalized_columns(state[runtime.index]))],
            output_schema)
        keep = None
        if selection is not None:
            keep = arrays.surviving_rows(status, selection, output_schema,
                                         stats)
            if keep is None:  # no array form (the reason is noted)
                keep = _surviving_rows(
                    base.rows, status,
                    [column.decode() for column in aggregates],
                    compile_row(selection, output_schema), stats)
        elif any(status):
            keep = status.translate(_EMITTED)
        if fallbacks:
            scan_span.set(fallbacks=tuple(fallbacks))
        return arrays.emit(aggregates, keep, output_schema, stats)

    # The python kernel ran every block (under the numpy backend: the
    # array kernel gave the whole scan up, and said why).
    if fallbacks:
        scan_span.set(fallbacks=tuple(fallbacks))
    columns = [column for runtime in runtimes
               for column in runtime.finalized_columns(state[runtime.index])]
    base_rows = base.rows
    keep = _surviving_rows(
        base_rows, status, columns,
        None if selection is None
        else compile_row(selection, output_schema), stats)
    return _emit_rows(base_rows, columns, keep, output_schema, stats)
