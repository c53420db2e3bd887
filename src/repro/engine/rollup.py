"""Semantic rollup store: materialized GMDJ outputs with subsumption.

A GMDJ's output *is* a rollup: one tuple per base value, carrying the
aggregates of every ``(l_i, θ_i)`` block computed over a single detail
scan.  Under Gray et al.'s Data Cube lattice view, a stored GMDJ sits at
a point of the lattice and can answer any query *below* it — a finer
selection over the same base values, or a stricter θ whose extra
conjuncts only constrain the base side — without touching the detail
relation again.  :class:`RollupStore` implements exactly that reuse:

* **exact tier** — the probe's normalized (base, detail, blocks)
  signature matches a stored entry verbatim; serve a copy of the stored
  relation.
* **subsume tier** — the probe differs from a stored entry only by

  1. a selection wrapped around the same base
     (``MD(σ[p](B), R, l, θ)`` vs stored ``MD(B, R, l, θ)``) whose
     predicate ``p`` references only base attributes, and/or
  2. extra θ-conjuncts that reference only base attributes
     (``θ'_i = θ_i ∧ ρ_i`` with ``ρ_i`` over B).

  Case 1 is answered by filtering the cached rows on ``p`` (the GMDJ
  emits one output row per base row, *in base order*, so filtering the
  prefix columns reproduces the finer GMDJ's output exactly — order,
  duplicates and all).  Case 2 is sound in 3VL because
  ``θ_i ∧ ρ_i`` can only be TRUE for detail tuples where ``ρ_i(b)`` is
  TRUE; for base rows where ``ρ_i(b)`` is FALSE or UNKNOWN the range
  ``RNG(b, R, θ_i ∧ ρ_i)`` is empty, so the block's aggregates take
  their empty-input values (``count`` family → 0, the rest → NULL); for
  base rows where ``ρ_i(b)`` is TRUE the range is unchanged, so the
  cached aggregates are already correct.

An entry holds the node's output as it was produced: under the numpy
kernel that is a column-backed relation, whose copies share the
(immutable) arrays — an exact hit hands one up without touching a row,
and the subsume tier's base filter and θ-residuals are truth masks over
the base-prefix columns with ``np.where`` patching the empty-input
values in (:func:`_serve_columns`); the row loop of :func:`_serve` is
that form's reference and its fallback.

Anything that cannot be proven servable falls through to a **miss** and
normal single-scan evaluation (whose result is then stored).  Fused
:class:`~repro.gmdj.evaluate.SelectGMDJ` nodes are never stored or
served: their completion output carries partial aggregates on assured
rows, so it is not a reusable rollup.

The entries are :attr:`RollupStore.entries`, a
:class:`~repro.engine.cache.DerivedMap`: bounded, cleared by every write
and refusing an entry whose evaluation began before one, as
:mod:`repro.engine.cache` states (the hook records the catalog's
generation when the run starts).  Maintaining an entry under an insert
instead of dropping it (Gray et al.: fold ΔR into the
distributive/algebraic scratchpads) is not done — a rebuild is one
detail scan, cheaper at this scale than the per-entry set-up of a ΔR
scan.  Signatures are computed on the *original* translated subtrees
(before the plan walker rebuilds children as anonymous materialized
tables), so they are stable across runs of the same logical plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.algebra.analysis import refers_only_to
from repro.algebra.expressions import Expression, conjuncts_of
from repro.algebra.operators import Select
from repro.engine.cache import DerivedMap, PlanCache
from repro.errors import ReproError
from repro.gmdj.operator import GMDJ, ThetaBlock
from repro.gmdj.physical import NodeHook
from repro.obs.tracer import span
from repro.storage.catalog import Catalog
from repro.storage.columnar import (
    ColumnarRelation,
    ColumnData,
    cached_columnar,
    is_encoded,
    relation_of,
    take_columns,
)
from repro.storage.iostats import IOStats
from repro.storage.relation import Relation
from repro.storage.schema import Schema


def _block_aggs(block: ThetaBlock) -> tuple[str, ...]:
    """The aggregate list of one θ-block, as comparable reprs."""
    return tuple(repr(spec) for spec in block.aggregates)


def _signature(
    base_text: str, detail_text: str, blocks: Sequence[ThetaBlock]
) -> tuple:
    """The exact-match key of a GMDJ node."""
    return (
        base_text,
        detail_text,
        tuple((repr(block.condition), _block_aggs(block)) for block in blocks),
    )


def _empty_values(block: ThetaBlock) -> tuple:
    """Per-aggregate empty-input results (count family 0, rest NULL)."""
    return tuple(
        0 if spec.function == "count" else None for spec in block.aggregates
    )


@dataclass
class RollupEntry:
    """One materialized GMDJ output plus what is needed to reuse it."""

    gmdj: GMDJ
    relation: Relation
    base_schema: Schema

    @property
    def base_arity(self) -> int:
        return len(self.base_schema)


class RollupStore:
    """Bounded LRU store of GMDJ rollups with subsumption matching."""

    def __init__(self, capacity: int = 128):
        self.entries: DerivedMap[tuple, RollupEntry] = DerivedMap(
            capacity, "rollup", "exact_hits", None, "subsume_hits", "misses",
            "stores", "invalidations", "table_invalidations")

    # -- store -----------------------------------------------------------------

    def store(self, node: GMDJ, relation: Relation, catalog: Catalog,
              generation: int) -> None:
        """Snapshot ``relation`` as the rollup for ``node`` unless
        ``catalog`` was written since ``generation``, when its
        evaluation began."""
        try:
            base_schema = node.base.schema(catalog)
        except ReproError:
            return
        signature = _signature(PlanCache.plan_key(node.base),
                               PlanCache.plan_key(node.detail), node.blocks)
        entry = RollupEntry(gmdj=node, relation=relation.copy(),
                            base_schema=base_schema)
        if self.entries.put(signature, entry, catalog, generation):
            self.entries.count("stores")

    # -- probe -----------------------------------------------------------------

    def probe(self, node: GMDJ) -> tuple[Relation, str] | None:
        """Try to answer ``node`` from stored rollups.

        Returns ``(relation, tier)`` — tier ``"exact"`` for a verbatim
        signature match, else ``"subsume"`` — or ``None`` on a miss.
        The returned relation is always an independent copy.
        """
        base_text = PlanCache.plan_key(node.base)
        detail_text = PlanCache.plan_key(node.detail)
        signature = _signature(base_text, detail_text, node.blocks)
        entry = self.entries.get(signature)
        if entry is not None:
            return entry.relation.copy(), "exact"
        served = self._probe_subsume(node, detail_text, base_text)
        if served is not None:
            return served, "subsume"
        self.entries.count("misses")
        return None

    def _probe_subsume(
        self, node: GMDJ, detail_text: str, base_text: str,
    ) -> Relation | None:
        base_filter: Expression | None = None
        if isinstance(node.base, Select):
            base_filter = node.base.predicate
            base_text = PlanCache.plan_key(node.base.child)
        # Same-shape candidates: signature[:2] is (base, detail).
        for signature, entry in self.entries.matching(
                lambda key: key[0] == base_text and key[1] == detail_text):
            try:
                served = self._try_serve(entry, node, base_filter)
            except ReproError:
                served = None
            if served is not None:
                self.entries.count("subsume_hits", signature)
                return served
        return None

    def _try_serve(
        self, entry: RollupEntry, node: GMDJ, base_filter: Expression | None,
    ) -> Relation | None:
        """Serve ``node`` from ``entry`` if subsumption holds, else None."""
        stored = entry.gmdj
        if len(stored.blocks) != len(node.blocks):
            return None
        schema = entry.base_schema
        if base_filter is not None and not refers_only_to(base_filter, schema):
            return None
        residuals: list[list[Expression]] = []
        for query_block, stored_block in zip(node.blocks, stored.blocks):
            if _block_aggs(query_block) != _block_aggs(stored_block):
                return None
            extras = _theta_residual(
                query_block.condition, stored_block.condition, schema
            )
            if extras is None:
                return None
            # Certificate gate: serving refines the stored result by
            # re-filtering base rows on the residual, which is only
            # sound when each residual conjunct has a known predicate
            # class (equality / inequality / range / null-test /
            # constant).  An opaque conjunct carries no monotonicity
            # fact the subsumption argument can lean on, so it misses.
            from repro.lint.absint import classify_conjunct

            for extra in extras:
                klass, _ = classify_conjunct(extra)
                if klass == "opaque":
                    return None
            residuals.append(extras)
        # Empty residuals and no base filter can still land here when the
        # query θ is a conjunct *reordering* of the stored θ (And is
        # commutative in 3VL); _serve then degenerates to a plain copy.
        return _serve(entry, base_filter, residuals)

    # -- plan-walker hook ------------------------------------------------------

    def node_hook(self, catalog: Catalog) -> NodeHook:
        """The per-GMDJ hook for :func:`repro.gmdj.physical.evaluate_plan`.

        The walker hands the hook each *original* node, whose base/detail
        subtrees still render deterministically — the rebuilt node's
        children are anonymous materialized tables and would not make
        stable signatures.  Hits emit a ``rollup_hit`` span (with the
        tier that answered) and never call ``evaluate``; misses wrap the
        evaluation in a ``rollup_miss`` span and store the fresh result,
        unless the catalog was written since the hook was made.
        """
        generation = catalog.generation

        def hook(node: GMDJ, evaluate: Callable[[], Relation]) -> Relation:
            served = self.probe(node)
            if served is not None:
                relation, tier = served
                with span("rollup", kind="rollup_hit", tier=tier,
                          rows=len(relation)):
                    return relation
            with span("rollup", kind="rollup_miss"):
                result = evaluate()
            self.store(node, result, catalog, generation)
            return result

        return hook

    # -- lifecycle -------------------------------------------------------------

    def invalidate(self) -> None:
        """Drop every rollup (DDL that changes a schema or an access
        path)."""
        self.entries.clear("invalidations")

    def invalidate_results(self) -> None:
        """Rows were appended to a table: drop every rollup, counted as
        a table invalidation."""
        self.entries.clear("table_invalidations")

    def __len__(self) -> int:
        return len(self.entries)

    def stats(self) -> dict[str, int]:
        return {"entries": len(self.entries), **self.entries.counts}


def _theta_residual(
    query_condition: Expression,
    stored_condition: Expression,
    base_schema: Schema,
) -> list[Expression] | None:
    """Extra base-only conjuncts of the query θ over the stored θ.

    Returns the residual conjuncts ``ρ`` such that
    ``query θ = stored θ ∧ ρ`` (as a conjunct multiset) with every ρ
    referencing only base attributes — or ``None`` when the stored θ is
    not a conjunct-subset of the query θ, or a residual touches the
    detail side (re-aggregation would need a detail scan).
    """
    remaining = list(conjuncts_of(stored_condition))
    extras: list[Expression] = []
    for conjunct in conjuncts_of(query_condition):
        for index, candidate in enumerate(remaining):
            if conjunct.same_as(candidate):
                del remaining[index]
                break
        else:
            extras.append(conjunct)
    if remaining:
        return None
    for extra in extras:
        if not refers_only_to(extra, base_schema):
            return None
    return extras


def _serve(
    entry: RollupEntry,
    base_filter: Expression | None,
    residuals: list[list[Expression]],
) -> Relation:
    """Build the finer result from the cached rollup.

    Drops rows whose base prefix fails ``base_filter``, and for each
    block whose residual is not TRUE on a row's base prefix replaces
    that block's aggregate slots with empty-input values — |B| rows, no
    detail scan.  A column-backed entry is served on arrays
    (:func:`_serve_columns`); the row loop below is the reference, and
    the fallback when a predicate or column has no exact array form.
    """
    if is_encoded(entry.relation):  # stored column-backed
        from repro.algebra.npcompile import NpUnsupported

        try:
            return _serve_columns(entry, base_filter, residuals)
        except NpUnsupported:
            pass  # nothing was counted: decide row by row
    return _serve_rows(entry, base_filter, residuals)


def _serve_columns(
    entry: RollupEntry,
    base_filter: Expression | None,
    residuals: list[list[Expression]],
) -> Relation:
    """:func:`_serve_rows` over the entry's columns: same rows, order,
    value types and counters (a residual conjunct is evaluated — and
    counted — for the rows its block's earlier conjuncts left alive)."""
    from repro.algebra.npcompile import Columns, NpUnsupported, np_truth_mask

    cached = entry.relation
    columnar = cached_columnar(cached)
    arity = entry.base_arity
    columns = list(columnar.columns)
    # The predicates bind against the stored base schema (the prefix of
    # the entry's), as the row loop binds them.
    prefix = Columns(ColumnarRelation(entry.base_schema, columns[:arity],
                                      columnar.length))
    evals = 0
    length = columnar.length
    if base_filter is not None:
        evals += length
        picked = np.flatnonzero(
            np_truth_mask(base_filter, prefix.resolve, length))
        if len(picked) < length:
            columns = list(take_columns(columns, picked, length))
            length = len(picked)
            prefix = Columns(ColumnarRelation(entry.base_schema,
                                              columns[:arity], length))
    offset = arity
    for block, extras in zip(entry.gmdj.blocks, residuals):
        width = len(block.aggregates)
        alive = None
        for extra in extras:
            evals += length if alive is None else int(alive.sum())
            truth = np_truth_mask(extra, prefix.resolve, length)
            alive = truth if alive is None else alive & truth
        if alive is not None and not alive.all():
            for slot, spec in enumerate(block.aggregates, start=offset):
                column = columns[slot]
                if column.kind == "object":
                    raise NpUnsupported("object-encoded aggregate column")
                if spec.function == "count":  # empty input counts 0
                    mask = column.valid if column.valid is None \
                        else column.valid | ~alive
                    columns[slot] = ColumnData(
                        column.kind, np.where(alive, column.data, 0),
                        mask, column.dictionary)
                else:  # ... and every other aggregate is NULL
                    columns[slot] = ColumnData(
                        column.kind, column.data,
                        alive if column.valid is None
                        else column.valid & alive, column.dictionary)
        offset += width
    stats = IOStats.ambient()
    stats.predicate_evals += evals
    stats.tuples_output += length
    return relation_of(cached.schema, columns, length, name=cached.name)


def _serve_rows(
    entry: RollupEntry,
    base_filter: Expression | None,
    residuals: list[list[Expression]],
) -> Relation:
    """The row loop of :func:`_serve`: one walk over the cached rows."""
    schema = entry.base_schema
    arity = entry.base_arity
    stats = IOStats.ambient()
    filter_eval = base_filter.bind(schema) if base_filter is not None else None
    residual_evals = [
        [extra.bind(schema) for extra in extras] for extras in residuals
    ]
    slots = []
    offset = arity
    for block in entry.gmdj.blocks:
        width = len(block.aggregates)
        slots.append((offset, width, _empty_values(block)))
        offset += width
    any_residual = any(residuals)
    rows = []
    for row in entry.relation.rows:
        prefix = row[:arity]
        if filter_eval is not None:
            stats.predicate_evals += 1
            if not filter_eval(prefix).is_true:
                continue
        if any_residual:
            patched: list | None = None
            for (start, width, empty), evals in zip(slots, residual_evals):
                alive = True
                for evaluator in evals:
                    stats.predicate_evals += 1
                    if not evaluator(prefix).is_true:
                        alive = False
                        break
                if not alive:
                    if patched is None:
                        patched = list(row)
                    patched[start:start + width] = empty
            rows.append(tuple(patched) if patched is not None else row)
        else:
            rows.append(row)
    stats.tuples_output += len(rows)
    cached = entry.relation
    return Relation(cached.schema, rows, name=cached.name, validate=False)
