"""Whole-array GMDJ detail scan: the numpy backend.

The python batch kernel (:mod:`repro.gmdj.vectorized`) amortizes closure
dispatch across chunks but still executes one generated Python frame per
chunk element.  This kernel evaluates a GMDJ — with or without a
completion rule — over arrays of candidate ``(base, row)`` **pairs**,
and nothing in it runs once per base tuple in Python: base keys,
accumulator state and the emitted aggregates all stay columns.

* a *hash block* narrows R before any pair exists: its key bucket, its
  constant key components (``r.prio = '1-URGENT'``) and every residual
  conjunct that reads detail columns alone (Figure 2's
  ``o.totalprice > 430000``) become one row mask, evaluated once over R
  per scan, and pairs are built for the **admitted rows** only — one
  gather through the join index's row → base map at fanout <= 1, the
  CSR table's expansion otherwise; the conjuncts that read the base
  run over those pairs alone;
* the detail relation is walked in row *tiles* cut by the pairs that
  exist; per tile every θ block materializes its pairs (a hash block
  from its admitted rows, a scan block the range form declines as
  active-bases × tile-rows, an invariant block as the rows
  themselves), evaluates what is left of its residual **once** over
  the gathered pair arrays (:mod:`repro.algebra.npcompile`; base
  columns come from the base relation's columnar encoding) and keeps
  the matching pairs;
* a *scan block* — no equality to hash — whose θ is at most one ``<>``
  and one one-sided range between a base and a detail column, plus
  conjuncts over one side, builds no pairs at all: it takes the
  **range form** (:func:`_take_ranges`).  Its detail rows are sorted by
  the range column into a :class:`_RangeIndex`, so a base tuple's
  matches are a suffix (``np.searchsorted``) less the rows whose ``<>``
  key equals its own.  Counts and integer sums subtract (Gray et al.:
  distributive aggregates do), ``min``/``max`` and ``t_b`` keep the best
  of the two best distinct keys per suffix, so the block costs
  O((|B| + |R|) log |R|) instead of |B|·|R|.  The index reads detail
  columns only and is kept beside the join indexes;
* hash matching (§2.3's "hash B on θ's equality attributes") is built
  from the base relation's key **columns**: the distinct base keys
  become buckets with a CSR table of their base positions (duplicate
  base keys fan out, a NULL component lands in no bucket), and detail
  keys resolve to buckets by *direct addressing* — ``table[key - lo]``
  — whenever the base keys' own range ``hi - lo`` fits in
  \\|R\\| + \\|B\\| slots, by ``np.searchsorted`` into the sorted distinct
  keys otherwise (sparse or float domains); when no key fans out, each
  detail row's one base tuple is kept as well (``row_base``).  One such
  structure serves every block of the GMDJ with the same correlating
  key list (Prop 4.1's coalesced blocks over one key); a key component
  with a constant side (``r.prio = '1-URGENT'``) is that block's own
  row or base mask on top of it.  Between two stored tables whose key sides
  are plain columns the structure is a *join index*: it depends on
  those columns alone, not on the query, so the detail encoding keeps
  the last few it was built for (:func:`_join_index`) and every later
  scan over the same pair of encodings reuses it.  A write makes a new
  encoding, so it never sees a stale one.  No Python dict over B is
  ever built here;
* distributive/algebraic aggregates (Gray et al.) have fixed-size
  scratchpads, so a base tuple's state is a few array slots: they
  reduce grouped over the surviving pairs with ``ufunc.at`` — which
  accumulates strictly in pair order, so float sums keep Python's
  sequential addition order bit-for-bit — into per-spec arrays that are
  *finalized as columns* after the last tile (counts; SUM/MIN/MAX with
  NULL where nothing was seen; AVG divided exactly as Python divides).
  ``COUNT(DISTINCT x)`` is the set of ``(base, value-code)`` pairs: a
  bitmap with one byte per pair when base tuples × codes fit in the
  pair buffer's own size, a sorted unique over the pairs otherwise
  (value codes are ``x - lo`` for an integer ``x`` of narrow range, by
  the keys' direct-addressing rule, else ranks among the sorted
  distinct values).  No accumulator object exists for a block this
  kernel takes;
* the fused selection of a ``SelectGMDJ`` is one
  :func:`~repro.algebra.npcompile.np_truth_mask` over base columns ++
  finalized aggregate columns, for ACTIVE rows only
  (:meth:`ArrayScan.surviving_rows`);
* the node's output is those columns: :meth:`ArrayScan.emit` gathers the
  base relation's columns (its own encoding — a column-backed base from
  another array operator is never re-encoded) and the aggregate columns
  by the keep mask into a column-backed relation.  No tuple is built
  here; the flat operators above take their array forms
  (:mod:`repro.algebra.npoperators`) and rows appear once, where the
  result leaves the engine.

Completion is accounting
------------------------
A base tuple's completion (Thm 4.1/4.2) depends only on *its own*
θ-matches in detail-row order, so it is a pure function of the pair
arrays: its **first completion row** ``t_b`` is the earliest row that
matches a ``must_be_zero`` block or a ``pair_equal`` weak block without
its restrictive one (doom), or the row at which the last
``need_positive``/``need_at_least`` threshold is reached (assure).
:class:`_CompletionRows` keeps one event row per atom as the tiles go
by: a running ``np.minimum.at`` for a doom and for a first match, a
stable sort only for ``need_at_least``'s k-th match.  A rule changes
what the walk accumulates and counts, not how it walks R: every tile
keeps the matching pairs with ``r < t_b`` (doom) or ``r <= t_b``
(assure, whose partial aggregates are thereby the row kernel's), and
the completion-free scan walks the same tiles with nothing cut.
Residual evaluations are derived after the walk from ``t_b``: a hash
block's are its *candidate* pairs — key matches, admitted or not — with
``r <= t_b``, counted from its bucket's rows
(:meth:`_HashMatch.evaluations`); a scan or invariant block's are
Σ_b min(t_b, |R| − 1) + 1 (:func:`_row_evaluations`).  Completed tuples
leave the active set between tiles, which shrinks a declined scan
block's active-bases × rows pairs, and the walk ends once every tuple
has completed.  ``TILE_PAIRS`` bounds the pairs one block builds per
tile: a scan over hash blocks alone walks its first tile at
``TILE_PAIRS`` admitted pairs and the rest in tiles of ``8 *
TILE_PAIRS`` (the bound the accumulators already compact at), with or
without a rule; a scan with a declined scan block keeps ``TILE_PAIRS``
throughout.  A scan in range form computes ``t_b`` without a walk — the
first match of a ``must_be_zero`` block, the first row of a
``pair_equal`` weak block its restrictive range does not admit (a
suffix of a *doom* index), the first match of a one-block
``need_positive`` — and under any other rule the whole scan walks pairs,
because the rule couples its blocks.  The
:class:`~repro.storage.iostats.IOStats` counters stay the *logical*
ones — identical to the row kernel's whatever the tile size or form
(``index_builds``/``index_probes`` count one build and \\|R\\| probes per
hash block, however many blocks or scans share a key structure; a
range-form block derives its evaluations and updates from ``t_b`` in
1-D, :func:`_finish_ranges`).

Identity contract
-----------------
Same rows, same order, same counters as the python kernels.  Work with
no *exact* whole-array form — object-encoded columns, int64 overflow
hazards, NaN or string min/max, ``SUM``/``AVG(DISTINCT)`` — falls back:
an aggregate drops to per-value Python accumulation over the already
known surviving pairs (private accumulator objects, finalized into the
same column shape); an unsupported θ (:class:`NpUnsupported`) hands the
block — under a completion rule, where blocks are coupled, the whole
scan — back to the python kernel, which alone allocates accumulator
objects for it.  Nothing is written to the caller's counters or status
bytes before the last tile has succeeded, so a fallback never sees
partial state.  Fallback reasons are returned so EXPLAIN ANALYZE can
surface them: objects exist only where a reason is reported.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Sequence

import numpy as np

from repro.algebra.aggregates import AggregateSpec
from repro.algebra.analysis import is_trivially_true, refers_only_to
from repro.algebra.compile import compile_batch_values
from repro.algebra.expressions import (
    MIRROR,
    Column,
    Expression,
    conjoin,
    conjuncts_of,
)
from repro.algebra.npcompile import (
    _FLOAT_EXACT,
    _guard_float_exact,
    _is_floatish,
    Columns,
    NpUnsupported,
    NpValue,
    column_of_value,
    np_truth_mask,
    np_value,
)
from repro.errors import CardinalityError
from repro.gmdj.completion import CompletionRule
from repro.gmdj.evaluate import _ACTIVE, _ASSURED, _DOOMED, _BlockRuntime
from repro.gmdj.operator import ThetaBlock
from repro.lint.absint import classify_conjunct
from repro.obs.metrics import get_registry
from repro.storage.columnar import (
    ColumnarRelation,
    ColumnData,
    cached_columnar,
    encode_column,
    relation_of,
    take_columns,
)
from repro.storage.iostats import IOStats
from repro.storage.relation import Relation
from repro.storage.schema import Schema

#: Candidate (base, row) pairs one θ block materializes per detail-row
#: tile.  It bounds the kernel's working set for any |B| x |R| (a few
#: int64/bool arrays of this length per block) and is small enough that
#: those arrays stay under the allocator's mmap threshold.
TILE_PAIRS = 8192

#: ``t_b`` of a base tuple that has not completed: "row ∞".
_NEVER = 2 ** 63 - 1

#: Int64 magnitude bound above which a sum falls back to exact Python
#: accumulation (Python ints are unbounded; int64 wraps).
_SUM_SAFE = 2 ** 63


def _gather(value: NpValue, idx: Any) -> NpValue:
    """Restrict a whole-column NpValue to ``idx`` (index array/slice)."""
    values = value.values
    if isinstance(values, np.ndarray):
        values = values[idx]
    null = value.null
    if isinstance(null, np.ndarray):
        null = null[idx]
    return NpValue(values, null, value.kind, value.dictionary)


class _PairColumns:
    """Resolution over base columns ++ detail columns, per pair.

    Mirrors how the row kernel binds residuals against the concatenated
    schema: positions below the base arity gather the base column by
    the pairs' base indices, positions above it gather the detail
    column by their row indices.
    """

    __slots__ = ("base", "detail", "combined_schema", "base_arity",
                 "_positions")

    def __init__(self, base: Columns, detail: Columns,
                 combined_schema: Schema) -> None:
        self.base = base
        self.detail = detail
        self.combined_schema = combined_schema
        self.base_arity = len(base.schema)
        self._positions: dict[str, int] = {}

    def resolver(self, b: Any, r: Any) -> Callable[[str], NpValue]:
        def resolve(reference: str) -> NpValue:
            position = self._positions.get(reference)
            if position is None:
                position = self._positions[reference] = \
                    self.combined_schema.index_of(reference)
            if position < self.base_arity:
                return _gather(self.base.by_position(position), b)
            return _gather(
                self.detail.by_position(position - self.base_arity), r)
        return resolve


# -- hash matching -------------------------------------------------------------


def _lookup(distinct: Any, codes: Any) -> Any:
    """Position of each code in sorted ``distinct``; -1 where absent."""
    if not len(distinct):
        return np.full(len(codes), -1, dtype=np.int64)
    position = np.searchsorted(distinct, codes)
    np.minimum(position, len(distinct) - 1, out=position)
    return np.where(distinct[position] == codes, position, -1)


def _distinct(values: Any) -> Any:
    """Sorted distinct values (``np.unique`` without its hashing set-up,
    which dominates on the <= |B| keys this is called with)."""
    ordered = np.sort(values)
    if len(ordered) < 2:
        return ordered
    fresh = np.empty(len(ordered), dtype=bool)
    fresh[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=fresh[1:])
    return ordered[fresh]


def _is_missing(value: NpValue) -> bool:
    """A key side that is NULL everywhere: it matches nothing."""
    return value.kind == "null" or value.null is True


def _nobody(n_base: int, total: int) -> tuple[Any, Any, int, bool]:
    return (np.full(n_base, -1, dtype=np.int64),
            np.full(total, -1, dtype=np.int64), 0, True)


def _only(live: Any, codes: Any) -> Any:
    """``codes`` with -1 ("matches nothing") outside ``live`` (None = all)."""
    return codes if live is None else np.where(live, codes, -1)


def _int_codes(base_values: Any, base_live: Any, row_values: Any,
               row_live: Any) -> tuple[Any, Any, int, bool]:
    """Dense codes for one int64 domain on both sides of an equality.

    ``*_live`` masks the positions that can match at all (None = all).
    Returns ``(base_codes, row_codes, n_codes, direct)``: the distinct
    live base values are the codes, -1 marks "matches nothing", and
    ``direct`` says the rows were coded by direct addressing — chosen
    when the base values' own range fits in |R| + |B| table slots —
    rather than by ``searchsorted``.
    """
    n_base, total = len(base_values), len(row_values)
    distinct = _distinct(base_values if base_live is None
                         else base_values[base_live])
    if not len(distinct):
        return _nobody(n_base, total)
    lo, hi = int(distinct[0]), int(distinct[-1])
    span = hi - lo + 1
    direct = span <= n_base + total
    if direct:
        # Distances from lo in modular uint64 arithmetic: exact for any
        # two int64s, and >= span exactly when a value is outside
        # [lo, hi] — those all read the table's spare last slot.
        origin = np.uint64(lo % 2 ** 64)
        table = np.full(span + 1, -1, dtype=np.int64)
        table[(distinct.view(np.uint64) - origin).view(np.int64)] = \
            np.arange(len(distinct))

    def code(values: Any, live: Any) -> Any:
        if direct:
            offset = values.view(np.uint64) - origin
            np.minimum(offset, np.uint64(span), out=offset)
            codes = table.take(offset.view(np.int64))
        else:
            codes = _lookup(distinct, values)
        return _only(live, codes)

    return (code(base_values, base_live), code(row_values, row_live),
            len(distinct), direct)


def _component_codes(left: NpValue, right: NpValue, detail_codes: Callable,
                     ) -> tuple[Any, Any, int, bool]:
    """Code one correlating key component on both sides of the equality.

    ``left`` spans the base rows, ``right`` the detail rows (both
    arrays).  Returns ``(base_codes, row_codes, n_codes, direct)`` where
    two codes are equal exactly when the Python values are
    (``1 == 1.0 == True``, a string never equals a number, NULL equals
    nothing) and -1 marks "matches nothing".
    """
    if _is_missing(left) or _is_missing(right) or left.kind != right.kind:
        return _nobody(len(left.values), len(right.values))
    base_live = None if left.null is False else ~left.null
    row_live = None if right.null is False else ~right.null
    if left.kind == "str":
        # Base words looked up in the detail column's cached inverse:
        # one dict probe per distinct base word, then table lookups.
        words = left.dictionary or []
        used = _distinct(left.values if base_live is None
                         else left.values[base_live])
        code_of = detail_codes()
        wanted = np.array([code_of.get(words[code], -1)
                           for code in used.tolist()], dtype=np.int64)
        present = wanted >= 0
        n_codes = int(np.count_nonzero(present))
        base_table = np.full(max(1, len(words)), -1, dtype=np.int64)
        base_table[used[present]] = np.arange(n_codes)
        row_table = np.full(max(1, len(right.dictionary or [])), -1,
                            dtype=np.int64)
        row_table[wanted[present]] = np.arange(n_codes)
        return (_only(base_live, base_table[left.values]),
                _only(row_live, row_table[right.values]), n_codes, True)
    if _is_floatish(left) or _is_floatish(right):
        # The equality runs in float64; an int beyond 2**53 on either
        # side would round where Python compares exactly.
        _guard_float_exact(left, right, "key equality")
        base_values = left.values.astype(np.float64, copy=False)
        distinct = _distinct(base_values if base_live is None
                             else base_values[base_live])
        row_values = right.values.astype(np.float64, copy=False)
        # (NaN equals nothing, itself included: _lookup finds it nowhere.)
        return (_only(base_live, _lookup(distinct, base_values)),
                _only(row_live, _lookup(distinct, row_values)),
                len(distinct), False)
    return _int_codes(left.values.astype(np.int64, copy=False), base_live,
                      right.values.astype(np.int64, copy=False), row_live)


def _key_codes(components: Sequence[tuple[NpValue, NpValue, Callable]],
               n_base: int, total: int) -> tuple[Any, Any, int, bool]:
    """Code a whole list of correlating key components: equal codes
    exactly for equal key tuples (see :func:`_component_codes`)."""
    if not components:  # the empty key list: one bucket of every base row
        return (np.zeros(n_base, dtype=np.int64),
                np.zeros(total, dtype=np.int64), 1, True)
    base_code, row_code, n_codes, direct = _component_codes(
        *components[0])
    for left, right, detail_codes in components[1:]:
        part_base, part_row, radix, part_direct = _component_codes(
            left, right, detail_codes)
        # Re-densify against the live key prefixes: codes stay below
        # |B| whatever the number of components.
        base_code, row_code, n_codes, dense = _int_codes(
            base_code * radix + part_base,
            (base_code >= 0) & (part_base >= 0),
            row_code * radix + part_row,
            (row_code >= 0) & (part_row >= 0))
        direct = direct and part_direct and dense
    return base_code, row_code, n_codes, direct


def _equals_constant(column: NpValue, constant: NpValue,
                     codes: Callable, size: int) -> Any:
    """Where ``column`` (an array, or itself a constant) equals the
    constant key side, as Python compares them; a bool mask."""
    nowhere = np.zeros(size, dtype=bool)
    if _is_missing(column) or _is_missing(constant) \
            or column.kind != constant.kind:
        return nowhere
    if not isinstance(column.values, np.ndarray):
        return ~nowhere if column.values == constant.values else nowhere
    if column.kind == "str":
        code = codes().get(constant.values, -1)
        if code < 0:
            return nowhere
        equal = column.values == code
    else:
        _guard_float_exact(column, constant, "key equality")
        equal = column.values == constant.values
    return equal if column.null is False else equal & ~column.null


class _HashMatch:
    """Detail rows matched to base buckets: ``row_bucket`` + a CSR table.

    Built from the base relation's key columns: each distinct base key
    is a bucket (``components`` are the correlating key components,
    ``base_filter`` masks the base tuples a constant component admits).
    ``row_bucket[r]`` is the bucket detail row ``r`` falls in (-1: NULL
    key component or no equal base key); bucket ``k`` holds base indices
    ``bases[starts[k]:starts[k] + sizes[k]]`` in ascending order, so
    duplicate base keys fan out.  When no key fans out (``fanout`` <= 1)
    ``row_base[r]`` is the one base tuple row ``r`` pairs with (-1: none),
    so a block's pairs are one gather.  ``lookup`` records how the rows
    were resolved (``"direct"`` addressing or ``"sorted"`` search).
    """

    __slots__ = ("row_bucket", "starts", "sizes", "bases", "fanout",
                 "row_base", "lookup", "_matched", "_by_bucket")

    def __init__(self, components: Sequence[tuple[NpValue, NpValue, Callable]],
                 base_filter: Any, n_base: int, total: int) -> None:
        base_code, row_code, n_codes, direct = _key_codes(
            components, n_base, total)
        if base_filter is not None:
            # Base tuples a constant key component rules out (``b.x = 3``)
            # are in no bucket; buckets they alone held disappear.
            base_code, row_code, n_codes, _ = _int_codes(
                base_code, (base_code >= 0) & base_filter,
                row_code, row_code >= 0)
        live = np.flatnonzero(base_code >= 0)
        codes = base_code[live]
        self.bases = live[np.argsort(codes, kind="stable")]
        self.sizes = np.bincount(codes, minlength=n_codes)
        self.starts = np.cumsum(self.sizes) - self.sizes
        self.fanout = int(self.sizes.max()) if n_codes else 0
        # Every code is a live base key, so every bucket has a member —
        # except the empty key list's one bucket over an empty base.
        self.row_bucket = row_code if len(live) else \
            np.full(total, -1, dtype=np.int64)
        self.row_base = None
        if self.fanout <= 1:
            # Each bucket's one base tuple; the spare last slot is -1's.
            owner = np.full(n_codes + 1, -1, dtype=np.int64)
            owner[codes] = live
            self.row_base = owner.take(self.row_bucket)
        self.lookup = "direct" if direct else "sorted"
        self._matched: Any = None
        self._by_bucket: tuple[Any, ...] | None = None

    def freeze(self) -> None:
        """Write-protect the arrays: the structure is shared by later
        scans as a join index."""
        for array in (self.row_bucket, self.starts, self.sizes, self.bases,
                      self.row_base):
            if array is not None:
                array.flags.writeable = False

    def matched(self) -> Any:
        """The detail rows in some bucket, ascending — built on first
        use, then kept like :meth:`evaluations`' keys."""
        if self._matched is None:
            matched = np.flatnonzero(self.row_bucket >= 0)
            matched.flags.writeable = False
            self._matched = matched
        return self._matched

    def pairs(self, rows: Any) -> tuple[Any, Any]:
        """The ``(base, row)`` pairs of ``rows`` (ascending, each in a
        bucket), row-major."""
        if self.row_base is not None:
            return self.row_base[rows], rows
        bucket = self.row_bucket[rows]
        sizes = self.sizes[bucket]
        r = np.repeat(rows, sizes)
        within = np.arange(len(r)) - np.repeat(np.cumsum(sizes) - sizes,
                                               sizes)
        return self.bases[np.repeat(self.starts[bucket], sizes) + within], r

    def evaluations(self, t: Any, row_filter: Any) -> int:
        """The candidate pairs a residual is evaluated on, counted without
        building them: per base tuple, the rows of its bucket that
        ``row_filter`` admits (None: every row) up to and including its
        completion row ``t_b`` (``t`` None: no completion).

        Per bucket, its rows in ascending order are a run of the sorted
        ``bucket * (|R| + 1) + row`` keys, so a base tuple's count is the
        distance between two positions in them (``first`` / ``last`` per
        entry of ``bases``) — for a completed one, ``last`` is one
        ``np.searchsorted``.  All of this depends on the key columns
        alone, so it is built on first use and kept with the structure
        (two scans that build it together store equal arrays).
        """
        width = len(self.row_bucket) + 1
        if self._by_bucket is None:
            matched = self.matched()
            keys = np.sort(self.row_bucket[matched] * width + matched)
            codes = np.repeat(np.arange(len(self.sizes)), self.sizes)
            bounds = np.searchsorted(
                keys, np.arange(len(self.sizes) + 1) * width)
            self._by_bucket = (keys, codes * width, bounds[codes],
                               bounds[codes + 1])
            for array in self._by_bucket:
                array.flags.writeable = False
        keys, origins, first, last = self._by_bucket
        if t is not None:
            at = t[self.bases]
            done = np.flatnonzero(at != _NEVER)
            last = last.copy()
            last[done] = np.searchsorted(keys, origins[done] + at[done],
                                         side="right")
        if row_filter is None:
            return int(np.sum(last - first))
        admitted = np.concatenate(
            ([0], np.cumsum(row_filter[keys % width])))
        return int(np.sum(admitted[last] - admitted[first]))


#: Join indexes one detail encoding keeps; a new one displaces the oldest.
JOIN_INDEXES_KEPT = 4


def _join_index(pairs: _PairColumns,
                keys: Sequence[tuple[Expression, Expression]],
                components: Sequence[tuple[NpValue, NpValue, Callable]],
                base_filter: Any, n_base: int, total: int,
                ) -> tuple[_HashMatch, str]:
    """The key structure over ``components`` (``keys`` are their
    expressions), and whether it was ``"built"`` now or ``"reused"``.

    Between two stored tables (encodings that carry a table name; an
    array operator's output carries none) whose key sides are plain
    columns, the structure depends on nothing but those columns, so it
    is a join index: kept on the detail encoding — shared with its
    scan views, gone with it — under the base encoding's column storage
    and the key column positions.  Both are compared by identity, and
    an encoding is never written after it is built (an insert makes a
    new one), so a kept index is never stale.  A constant key side
    (``base_filter``) is per query and is never kept.  Scans on other
    threads share the list unlocked: each entry's arrays are read-only,
    an entry is added or dropped by one list operation, and what an
    entry derives on first use (:meth:`_HashMatch.matched`,
    :meth:`_HashMatch.evaluations`) is stored by one attribute
    assignment and equal whoever derives it, so two scans that miss
    together each build — one wasted build, never a wrong entry.
    """
    base, detail = pairs.base.columnar, pairs.detail.columnar
    kept = positions = None
    if base_filter is None and base.name is not None \
            and detail.name is not None and all(
                isinstance(side, Column) for key in keys for side in key):
        kept = detail._join_indexes
        positions = tuple((base.schema.index_of(left.reference),
                           detail.schema.index_of(right.reference))
                          for left, right in keys)
        for columns, known, match in tuple(kept):
            if columns is base.columns and known == positions:
                get_registry().counter("npkernel.join_index_reuses").inc()
                return match, "reused"
    match = _HashMatch(components, base_filter, n_base, total)
    get_registry().counter("npkernel.join_index_builds").inc()
    if kept is not None:
        match.freeze()
        kept.append((base.columns, positions, match))
        del kept[:-JOIN_INDEXES_KEPT]
    return match, "built"


# -- aggregate accumulation ----------------------------------------------------


def _value_codes(values: Any, present: Any, slots: int) -> tuple[Any, int]:
    """Dense codes for a ``COUNT(DISTINCT)`` argument, and their radix.

    ``values`` is the whole argument column (an array, or a constant),
    ``present`` its non-NULL values.  Two present values get the same
    code exactly when they are equal: ``value - lo`` when they are
    integers (dictionary codes and bools included) whose range fits in
    ``slots`` — the rule :func:`_int_codes` applies to keys, read off
    the column — else their rank among the sorted distinct values.
    (Codes at NULL positions mean nothing; the mask drops them.)
    """
    if isinstance(values, np.ndarray) and len(present) \
            and present.dtype.kind in "ib":
        lo, hi = int(present.min()), int(present.max())
        if hi - lo + 1 <= slots:
            return values.astype(np.int64, copy=False) - lo, hi - lo + 1
    distinct = np.unique(present)
    return np.searchsorted(distinct, values), max(1, len(distinct))


class _SpecArrays:
    """One aggregate's accumulators as arrays over the block's groups.

    ``mode`` is the array reduction in use — ``"star"``, ``"count"``,
    ``"sum"``, ``"avg"``, ``"min"``, ``"max"``, ``"single"`` (rows per
    group and one scatter of the admitted row; a group with two raises
    at :meth:`finalize`), ``"bitmap"`` /
    ``"distinct"`` (``COUNT(DISTINCT)``: the seen (group, value-code)
    pairs as one byte per pair, or — when that many bytes would outgrow
    the pair buffer — as compacted pair lists) or ``"skip"`` (a NULL
    argument: every add is a no-op) — or
    ``"python"``: per-value accumulation into private accumulator
    objects, for anything without an exact array form.  ``reason`` says
    why, for the fallback report.  Either way the state leaves as one
    finalized column (:meth:`finalize`), never as objects per group.
    """

    __slots__ = ("spec", "groups", "mode", "reason", "value", "counts",
                 "totals", "seen", "pending", "pending_size", "radix",
                 "private", "value_fn")

    def __init__(self, spec: AggregateSpec, detail: Columns, groups: int,
                 total: int) -> None:
        self.spec = spec
        self.groups = groups
        self.reason: str | None = None
        self.value: NpValue | None = None
        self.counts = self.totals = self.seen = None
        self.private: dict[int, Any] = {}
        self.value_fn = None
        self.mode = "star" if spec.argument is None else \
            self._plan(spec, detail, groups, total)
        if self.mode not in ("python", "skip"):
            self.counts = np.zeros(groups, dtype=np.int64)

    def _plan(self, spec: AggregateSpec, detail: Columns, groups: int,
              total: int) -> str:
        if spec.distinct and spec.function != "count":
            # First-seen order decides a float SUM/AVG(DISTINCT).
            self.reason = "holistic DISTINCT aggregate"
            return "python"
        try:
            value = self.value = np_value(spec.argument, detail.resolve)
        except NpUnsupported as exc:
            self.reason = exc.reason
            return "python"
        if spec.function == "single":  # a NULL value is still a row
            self.totals = np.zeros(groups, dtype=np.int64)
            return "single"
        if value.kind == "null" or value.null is True:
            return "skip"
        values = value.values
        present = values if value.null is False or \
            not isinstance(values, np.ndarray) else values[~value.null]
        present = np.atleast_1d(present)
        is_float = present.dtype.kind == "f"
        if spec.distinct:
            if is_float and np.isnan(present).any():
                self.reason = "NaN under COUNT(DISTINCT)"
                return "python"
            codes, self.radix = _value_codes(values, present,
                                             groups + total)
            slots = groups * self.radix
            if slots >= _SUM_SAFE:
                self.reason = "COUNT(DISTINCT) code space beyond int64"
                return "python"
            # The argument becomes its value code; NULLs keep their mask.
            self.value = NpValue(codes, value.null, "num")
            if slots <= max(total, 8 * TILE_PAIRS):
                # The set of (group, code) pairs as one byte per slot:
                # never larger than the pair buffer `add` compacts at.
                self.seen = np.zeros(slots, dtype=bool)
                return "bitmap"
            self.seen = np.empty(0, dtype=np.int64)
            self.pending: list[Any] = []
            self.pending_size = 0
            return "distinct"
        function = spec.function
        if function == "count":
            return "count"
        if value.kind == "str":
            self.reason = "string min/max keeps Python ordering"
            return "python"
        if function in ("sum", "avg"):
            if is_float:
                self.totals = np.zeros(groups, dtype=np.float64)
            else:
                bound = max(-int(present.min()), int(present.max())) \
                    if len(present) else 0
                if bound * total >= _SUM_SAFE:
                    self.reason = "int64 sum may overflow"
                    return "python"
                self.totals = np.zeros(groups, dtype=np.int64)
            return function
        if present.dtype.kind == "b":
            self.reason = "boolean min/max keeps bool objects"
            return "python"
        if is_float and np.isnan(present).any():
            self.reason = "NaN breaks min/max comparability"
            return "python"
        # Any start value loses to the first real one (`counts` says
        # whether there was one).
        low, high = (-np.inf, np.inf) if is_float else \
            (np.iinfo(np.int64).min, np.iinfo(np.int64).max)
        self.totals = np.full(groups, high if function == "min" else low,
                              dtype=present.dtype)
        return function

    def add(self, b: Any, r: Any, columnar: ColumnarRelation) -> None:
        """Fold surviving pairs (per group in ascending row order)."""
        mode = self.mode
        if mode == "skip" or not len(b):
            return
        if mode == "star":
            np.add.at(self.counts, b, 1)
            return
        if mode == "python":
            if self.value_fn is None:  # compiled on first use only
                self.value_fn = compile_batch_values(self.spec.argument,
                                                     columnar.schema)
            private = self.private
            make = self.spec.make_accumulator
            for group, item in zip(b.tolist(), self.value_fn(
                    columnar.value_columns(), r.tolist())):
                accumulator = private.get(group)
                if accumulator is None:
                    accumulator = private[group] = make()
                accumulator.add(item)
            return
        if mode == "single":
            np.add.at(self.counts, b, 1)
            self.totals[b] = r
            return
        value = self.value
        if value.null is not False:
            keep = ~value.null[r]
            b, r = b[keep], r[keep]
        if mode == "count":
            np.add.at(self.counts, b, 1)
            return
        values = value.values
        values = values[r] if isinstance(values, np.ndarray) \
            else np.full(len(r), values)
        if mode == "bitmap":
            self.seen[b * self.radix + values] = True
            return
        if mode == "distinct":
            self.pending.append(b * self.radix + values)
            self.pending_size += len(b)
            if self.pending_size > max(len(self.seen), 8 * TILE_PAIRS):
                self._compact()  # keeps memory O(distinct pairs)
            return
        np.add.at(self.counts, b, 1)
        if mode == "min":
            np.minimum.at(self.totals, b, values)
        elif mode == "max":
            np.maximum.at(self.totals, b, values)
        else:
            # ufunc.at adds strictly in pair order: Python's sequential
            # `total += value`, bit for bit (np.sum's pairwise would not).
            np.add.at(self.totals, b, values.astype(np.int64)
                      if values.dtype.kind == "b" else values)

    def _compact(self) -> None:
        self.seen = np.unique(np.concatenate([self.seen, *self.pending]))
        self.pending = []
        self.pending_size = 0

    def finalize(self) -> NpValue | list:
        """The aggregate's result column over the block's groups, in
        array form — or, when it was accumulated per value in Python,
        as the list of those values (None = NULL)."""
        mode, groups = self.mode, self.groups
        counting = self.spec.function == "count"
        if mode == "python":
            column = [0 if counting else None] * groups
            for group, accumulator in self.private.items():
                column[group] = accumulator.result()
            return column
        if mode == "single":
            return self._single()
        if mode == "skip":  # every add was a no-op
            if counting:
                return NpValue(np.zeros(groups, dtype=np.int64), False, "num")
            return NpValue(None, True, "null")
        if mode == "bitmap":
            self.counts = np.count_nonzero(
                self.seen.reshape(groups, self.radix), axis=1)
        elif mode == "distinct":
            self._compact()
            self.counts = np.bincount(self.seen // self.radix,
                                      minlength=groups)
        if counting:
            return NpValue(self.counts, False, "num")
        unseen = self.counts == 0
        # Unseen groups hold a neutral value under the NULL mask (an
        # extremum's start value would trip the selection's range guards).
        data = np.where(unseen, 0, _exact_mean(self.totals, self.counts)
                        if mode == "avg" else self.totals)
        return NpValue(data, unseen if unseen.any() else False, "num")

    def _single(self) -> NpValue:
        """Each group's one admitted row's value (NULL where none was);
        a group that admitted two raises."""
        if (self.counts > 1).any():
            raise CardinalityError("scalar subquery returned multiple rows")
        unseen = self.counts == 0
        if unseen.all():
            return NpValue(None, True, "null")
        value = _gather(self.value, np.where(unseen, 0, self.totals))
        null = unseen if value.null is False else unseen | value.null
        return NpValue(value.values, null, value.kind, value.dictionary)


def _exact_mean(totals: Any, counts: Any) -> Any:
    """``total / count`` per group exactly as Python divides (0 where
    nothing was counted).  float64 division is correctly rounded and so
    is Python's ``int / int`` — they agree while the int64 total converts
    to float64 exactly; totals beyond 2**53 are divided as Python ints."""
    mean = np.zeros(len(totals), dtype=np.float64)
    np.divide(totals, counts, out=mean, where=counts > 0)
    if totals.dtype.kind != "f":
        for group in np.flatnonzero(np.abs(totals) >= _FLOAT_EXACT).tolist():
            mean[group] = int(totals[group]) / int(counts[group])
    return mean


# -- the range form ------------------------------------------------------------


@dataclass(frozen=True)
class RangeShape:
    """A scan block's θ as the range form reads it.

    ``neq`` is ``(base column, detail column)`` of its one ``<>``;
    ``band`` is ``(detail column, op, base column, conjunct repr)`` of
    its one one-sided range, oriented ``r.y op b.x``; ``detail_only`` /
    ``base_only`` are the conjuncts over one side (a row mask, a base
    mask); ``conjuncts`` are the reprs of all of θ's conjuncts, the sets
    :mod:`repro.gmdj.completion` compares blocks by.
    """

    neq: tuple[Column, Column] | None
    band: tuple[Column, str, Column, str] | None
    detail_only: tuple[Expression, ...]
    base_only: tuple[Expression, ...]
    conjuncts: frozenset[str]

    @property
    def has_residual(self) -> bool:
        return bool(self.neq or self.band or self.detail_only
                    or self.base_only)


def range_shape(condition: Expression, base_schema: Schema,
                detail_schema: Schema) -> RangeShape | str:
    """Factor a scan block's θ for the range form, or say why it cannot.

    Conjunct classes are :func:`repro.lint.absint.classify_conjunct`'s: a
    conjunct over both sides must be an ``inequality`` or a ``range``
    between a base and a detail column, at most one of each.
    """
    neq = band = None
    detail_only: list[Expression] = []
    base_only: list[Expression] = []
    for conjunct in conjuncts_of(condition):
        if is_trivially_true(conjunct):
            continue
        if refers_only_to(conjunct, detail_schema):
            detail_only.append(conjunct)
            continue
        if refers_only_to(conjunct, base_schema):
            base_only.append(conjunct)
            continue
        klass, _ = classify_conjunct(conjunct)
        if klass not in ("inequality", "range"):
            return f"{conjunct!r} is neither a <> nor a one-sided range"
        detail_side, op, base_side = conjunct.left, conjunct.op, conjunct.right
        if base_schema.has(detail_side.reference):
            detail_side, op, base_side = base_side, MIRROR[op], detail_side
        if klass == "inequality":
            if neq is not None:
                return "two <> conjuncts"
            neq = (base_side, detail_side)
        elif band is not None:
            return "a two-sided band"
        else:
            band = (detail_side, op, base_side, repr(conjunct))
    return RangeShape(neq, band, tuple(detail_only), tuple(base_only),
                      frozenset(map(repr, conjuncts_of(condition))))


def _truth_of(conjuncts: Sequence[Expression], resolve: Callable,
              n: int) -> Any:
    """Where every one of ``conjuncts`` is TRUE, as a bool mask."""
    mask = np.ones(n, dtype=bool)
    for conjunct in conjuncts:
        mask = mask & np_truth_mask(conjunct, resolve, n)
    return mask


def _suffix_best_two(values: Any, codes: Any, sentinel: Any, least: bool,
                     ) -> tuple[Any, Any, Any]:
    """Per suffix start ``s`` in ``0..len(values)``: the best value of
    ``values[s:]`` (least, or greatest), its code, and the best value
    whose code differs from that one; ``sentinel`` where there is none.

    "Best of two distinct keys" is associative, so the suffix scan is a
    doubling scan: log2 n whole-array steps, none per element.
    """
    n = len(values)
    best = np.append(values, sentinel)
    code = np.append(codes, -3)  # no row's code
    other = np.full(n + 1, sentinel, dtype=best.dtype)
    beats = np.less if least else np.greater
    keep = np.minimum if least else np.maximum
    step = 1
    while step <= n:
        head = n + 1 - step
        later = beats(best[step:], best[:head])
        won_code = np.where(later, code[step:], code[:head])
        lost, lost_code, lost_other = (
            np.where(later, array[:head], array[step:])
            for array in (best, code, other))
        runner_up = keep(np.where(later, other[step:], other[:head]),
                         np.where(lost_code != won_code, lost, lost_other))
        best = np.concatenate(
            (np.where(later, best[step:], best[:head]), best[head:]))
        code = np.concatenate((won_code, code[head:]))
        other = np.concatenate((runner_up, other[head:]))
        step *= 2
    return best, code, other


def _sentinel(dtype: Any, least: bool) -> Any:
    """The value every real one beats at a least / greatest search."""
    if dtype.kind == "f":
        return np.inf if least else -np.inf
    info = np.iinfo(dtype)
    return info.max if least else info.min


class _RangeIndex:
    """Detail rows of one scan block in *suffix order*: the rows a base
    tuple's range admits are a suffix of ``order``.

    With a range ``r.y op b.x`` the rows that have a ``y`` are sorted by
    it — ascending for ``>``/``>=``, descending for ``<``/``<=`` — and
    ``values`` keeps their ``y`` ascending for ``np.searchsorted``
    (``valued`` of them).  A *doom* index reverses that order and appends
    the rows whose ``y`` is NULL, so that the rows where the range is
    *not* TRUE form a suffix as well.  Without a range the order is
    ascending row position and every base tuple's suffix starts at 0.
    ``codes`` are the ``<>`` key's codes in that order — the detail
    column coded against itself by :func:`_component_codes`, -1 for a
    value (NaN) equal to nothing — and ``reps`` one row per code;
    ``by_code`` sorts the codes with their positions, so the rows of one
    key inside a suffix lie between two ``searchsorted`` results.  It
    reads detail columns only, so between stored tables it is kept like
    a join index (:func:`_range_index`).
    """

    __slots__ = ("order", "values", "valued", "codes", "reps", "by_code",
                 "_firsts")

    def __init__(self, live: Any, key: tuple[NpValue, Callable] | None,
                 y: NpValue | None, descending: bool, doom: bool) -> None:
        codes = self.codes = self.reps = self.by_code = self.values = None
        if key is not None:
            right, word_codes = key
            codes, _, n_codes, _ = _component_codes(right, right, word_codes)
            coded = np.flatnonzero(codes >= 0)
            self.reps = np.zeros(n_codes, dtype=np.int64)
            self.reps[codes[coded]] = coded
        if y is None:
            order = np.flatnonzero(live)
            self.valued = len(order)
        else:
            valued = live if y.null is False else live & ~y.null
            rows = np.flatnonzero(valued)
            ys = y.values[rows]
            if ys.dtype.kind == "b":
                ys = ys.astype(np.int64)
            ranked = np.argsort(ys, kind="stable")
            self.values = ys[ranked]
            order = rows[ranked]
            if descending != doom:
                order = order[::-1]
            if doom:
                order = np.concatenate(
                    (order, np.flatnonzero(live & ~valued)))
            self.valued = len(rows)
        self.order = order
        if codes is not None:
            self.codes = codes[order]
            # Stable: positions ascend within a code, so the combined
            # (code, position) keys are sorted.
            by_code = np.argsort(self.codes, kind="stable")
            self.by_code = (by_code,
                            (self.codes[by_code] + 1) * (len(order) + 1)
                            + by_code)
        self._firsts: tuple | None = None

    def freeze(self) -> None:
        """Write-protect the arrays: the index is shared by later scans."""
        for array in (self.order, self.values, self.codes, self.reps,
                      *(self.by_code or ())):
            if array is not None:
                array.flags.writeable = False

    def starts(self, x: Any, op: str) -> Any:
        """Where the rows ``r.y op x`` admit begin, per value of ``x``."""
        cut = np.searchsorted(self.values, x,
                              side="right" if op in (">", "<=") else "left")
        return cut if op in (">", ">=") else self.valued - cut

    def base_codes(self, left: NpValue, right: NpValue,
                   word_codes: Callable) -> Any:
        """Each base key (``left``) as a code of this index, by
        :func:`_component_codes` against one detail row per code; -2 for
        a key equal to no detail row's (NULL included)."""
        n_base = len(left.values)
        if not len(self.reps):
            return np.full(n_base, -2, dtype=np.int64)
        base_rank, rep_rank, n_codes, _ = _component_codes(
            left, _gather(right, self.reps), word_codes)
        to_code = np.full(max(1, n_codes), -2, dtype=np.int64)
        hit = rep_rank >= 0
        to_code[rep_rank[hit]] = np.flatnonzero(hit)
        return np.where(base_rank >= 0,
                        to_code[np.maximum(base_rank, 0)], -2)

    def _span(self, start: Any, code: Any) -> tuple[Any, Any]:
        """Where the rows of ``code`` from position ``start`` on lie in
        ``by_code``."""
        width = len(self.order) + 1
        ranked = self.by_code[1]
        return (np.searchsorted(ranked, (code + 1) * width + start),
                np.searchsorted(ranked, (code + 2) * width))

    def count_from(self, start: Any, code: Any) -> Any:
        """Rows from position ``start`` on whose key is not ``code``."""
        count = len(self.order) - start
        if code is None:
            return count
        lo, hi = self._span(start, code)
        return count - (hi - lo)

    def sum_from(self, values: Any, start: Any, code: Any) -> Any:
        """``values`` (int64, one per detail row) summed over the rows
        :meth:`count_from` counts: a suffix sum less the key's own."""
        ordered = values[self.order]
        total = np.concatenate(([0], np.cumsum(ordered)))
        result = total[-1] - total[start]
        if code is None:
            return result
        by_key = np.concatenate(([0], np.cumsum(ordered[self.by_code[0]])))
        lo, hi = self._span(start, code)
        return result - (by_key[hi] - by_key[lo])

    def best_from(self, values: Any, start: Any, code: Any, least: bool,
                  sentinel: Any) -> Any:
        """The least (greatest) of ``values`` over the rows
        :meth:`count_from` counts; ``sentinel`` where there is none."""
        ordered = values[self.order]
        if code is None:
            pick = np.minimum if least else np.maximum
            return np.append(pick.accumulate(ordered[::-1])[::-1],
                             sentinel)[start]
        best, best_code, other = _suffix_best_two(ordered, self.codes,
                                                  sentinel, least)
        return np.where(best_code[start] != code, best[start], other[start])

    def first_from(self, start: Any, code: Any) -> Any:
        """The earliest detail row among those :meth:`count_from` counts
        (``_NEVER``: none) — built on first use, then kept."""
        firsts = self._firsts
        if firsts is None:
            if self.codes is None:
                firsts = (np.append(
                    np.minimum.accumulate(self.order[::-1])[::-1], _NEVER),)
            else:
                firsts = _suffix_best_two(self.order, self.codes, _NEVER,
                                          True)
            self._firsts = firsts
        if code is None:
            return firsts[0][start]
        best, best_code, other = firsts
        return np.where(best_code[start] != code, best[start], other[start])


#: Marks a range index among ``ColumnarRelation._join_indexes`` entries,
#: whose first item is otherwise a join index's base column storage.
_RANGE = object()


def _range_index(pairs: _PairColumns, kept_key: tuple | None, live: Any,
                 key: tuple[NpValue, Callable] | None, y: NpValue | None,
                 descending: bool, doom: bool) -> tuple[_RangeIndex, str]:
    """The :class:`_RangeIndex` over ``live`` rows, and whether it was
    ``"built"`` now or ``"reused"``.

    ``kept_key`` (key and range column positions, the order) is given
    when the index depends on those stored columns alone — no
    detail-only conjunct masks the rows.  It is then kept like a join
    index (:func:`_join_index`): on the detail encoding of a stored table,
    under the same FIFO bound, never carried into the encoding a write
    makes.
    """
    detail = pairs.detail.columnar
    kept = None
    if kept_key is not None and detail.name is not None:
        kept, kept_key = detail._join_indexes, (*kept_key, doom)
        for owner, known, index in tuple(kept):
            if owner is _RANGE and known == kept_key:
                get_registry().counter("npkernel.range_index_reuses").inc()
                return index, "reused"
    index = _RangeIndex(live, key, y, descending, doom)
    get_registry().counter("npkernel.range_index_builds").inc()
    if kept is not None:
        index.freeze()
        kept.append((_RANGE, kept_key, index))
        del kept[:-JOIN_INDEXES_KEPT]
    return index, "built"


class _RangeBlock:
    """One scan block answered in range form, without candidate pairs.

    Per base tuple: ``ok`` (its base-only conjuncts hold and its ``<>``
    key is not NULL), ``code`` (that key in the index's codes), and for
    a range ``x_ok`` (``b.x`` neither NULL nor NaN) and ``cut`` (where
    the admitted rows begin); ``start`` folds them into one suffix start
    of the match index, its length where nothing matches.  ``index_state``
    is ``"built"`` when any index the block used was built by this scan.
    """

    __slots__ = ("runtime", "index", "shape", "specs", "ok", "code", "x_ok",
                 "cut", "start", "match", "index_state", "_source",
                 "_matches")

    def __init__(self, runtime: _BlockRuntime, block: ThetaBlock,
                 shape: RangeShape, pairs: _PairColumns, n_base: int,
                 total: int) -> None:
        self.runtime = runtime
        self.index = runtime.index
        self.shape = shape
        base, detail = pairs.base, pairs.detail
        self.specs = [_SpecArrays(spec, detail, n_base, total)
                      for spec in block.aggregates]
        for spec in self.specs:
            name = spec.spec.output_name
            if spec.mode in ("python", "bitmap", "distinct"):
                raise NpUnsupported(
                    f"{name}: {spec.reason or 'COUNT(DISTINCT)'}")
            if spec.mode in ("sum", "avg") and spec.totals.dtype.kind == "f":
                # A difference of suffix sums is not ufunc.at's
                # sequential addition, bit for bit.
                raise NpUnsupported(f"{name}: float {spec.mode}")
        live = _truth_of(shape.detail_only, detail.resolve, total)
        self.ok = _truth_of(shape.base_only, base.resolve, n_base)
        key = left = None
        if shape.neq is not None:
            base_side, detail_side = shape.neq
            left = np_value(base_side, base.resolve)
            right = np_value(detail_side, detail.resolve)
            if left.kind != right.kind:
                raise NpUnsupported("<> between a string and a number")
            if right.null is not False:
                live = live & ~right.null
            if left.null is not False:
                self.ok = self.ok & ~left.null
            key = (right, partial(detail.word_codes, detail_side, right))
        y = op = None
        descending = False
        if shape.band is not None:
            detail_side, op, base_side, _ = shape.band
            y = np_value(detail_side, detail.resolve)
            x = np_value(base_side, base.resolve)
            if y.kind != "num" or x.kind != "num":
                raise NpUnsupported("a range over strings")
            _guard_float_exact(x, y, "range")
            present = y.values if y.null is False else y.values[~y.null]
            if present.dtype.kind == "f" and np.isnan(present).any():
                raise NpUnsupported("NaN in the range column")
            descending = op in ("<", "<=")
        kept_key = None
        if not shape.detail_only:
            kept_key = tuple(
                None if side is None
                else detail.schema.index_of(side.reference)
                for side in (shape.neq and shape.neq[1],
                             shape.band and shape.band[0])) + (descending,)
        self._source = (pairs, kept_key, live, key, y, descending)
        self.match, self.index_state = _range_index(
            pairs, kept_key, live, key, y, descending, False)
        self.code = None if key is None else self.match.base_codes(
            left, key[0], key[1])
        empty = len(self.match.order)
        self.x_ok = self.cut = None
        reach = self.ok
        if shape.band is not None:
            values = x.values
            if values.dtype.kind == "b":
                values = values.astype(np.int64)
            self.x_ok = np.ones(n_base, dtype=bool) if x.null is False \
                else ~x.null
            if values.dtype.kind == "f":
                self.x_ok = self.x_ok & ~np.isnan(values)
            self.cut = self.match.starts(values, op)
            reach = reach & self.x_ok
        self.start = np.where(reach, 0 if self.cut is None else self.cut,
                              empty)
        self._matches = None

    def first_match(self) -> Any:
        """Each base tuple's first matching detail row (``_NEVER``: none)."""
        return self.match.first_from(self.start, self.code)

    def first_escape(self) -> Any:
        """Each base tuple's first row that matches this block without
        its range — the pair_equal doom when this block is the weak one
        plus that range — from the doom index, where those rows are a
        suffix (all of it when ``b.x`` is NULL or NaN)."""
        pairs, kept_key, live, key, y, descending = self._source
        doom, state = _range_index(pairs, kept_key, live, key, y,
                                   descending, True)
        if state == "built":
            self.index_state = state
        start = np.where(self.ok, np.where(self.x_ok, doom.valued - self.cut,
                                           0), len(doom.order))
        return doom.first_from(start, self.code)

    def matches(self) -> Any:
        """Each base tuple's number of matching detail rows."""
        if self._matches is None:
            self._matches = self.match.count_from(self.start, self.code)
        return self._matches

    def matches_before(self, t: Any) -> Any:
        """Matching rows before row ``t_b`` — for a block without a range,
        whose index is in row order, so that is a 1-D count."""
        cut = np.maximum(np.searchsorted(self.match.order, t), self.start)
        return self.matches() - self.match.count_from(cut, self.code)

    def columns(self, t: Any, n_base: int, total: int) -> list[NpValue]:
        """The finalized aggregates: over every match — or, with ``t``
        (assurance), over row ``t_b`` alone, the one row an assured
        tuple's single threshold block accumulated."""
        for spec in self.specs:
            mode = spec.mode
            if mode == "skip":
                continue
            if mode == "star":
                spec.counts = self.matches() if t is None \
                    else (t != _NEVER).astype(np.int64)
                continue
            if mode == "single":  # no rule completes a single block
                spec.counts, spec.totals = self.matches(), self.first_match()
                continue
            value = spec.value
            present = np.ones(total, dtype=bool) if value.null is False \
                else ~value.null
            values = value.values if isinstance(value.values, np.ndarray) \
                else np.full(total, value.values)
            if t is not None:
                hit = np.flatnonzero(t != _NEVER)
                rows = t[hit]
                spec.counts = np.zeros(n_base, dtype=np.int64)
                spec.counts[hit] = present[rows]
                if mode != "count":
                    spec.totals = np.zeros(n_base, dtype=spec.totals.dtype)
                    spec.totals[hit] = values[rows]
                continue
            spec.counts = self.match.sum_from(present.astype(np.int64),
                                              self.start, self.code)
            if mode in ("sum", "avg"):
                spec.totals = self.match.sum_from(
                    np.where(present, values, 0).astype(np.int64),
                    self.start, self.code)
            elif mode in ("min", "max"):
                least = mode == "min"
                sentinel = _sentinel(spec.totals.dtype, least)
                spec.totals = self.match.best_from(
                    np.where(present, values, sentinel), self.start,
                    self.code, least, sentinel)
        return [spec.finalize() for spec in self.specs]


def _range_completion(rule: CompletionRule, blocks: dict[int, _RangeBlock],
                      n_base: int) -> tuple[Any, dict | None]:
    """Every base tuple's ``t_b`` under ``rule``, and per block the
    range-free block whose matches before ``t_b`` are its aggregate
    updates (None: it has none) — None for assurance, where they are one
    per assured tuple.  Raises :class:`NpUnsupported` for a rule the
    range form does not take: only ``must_be_zero`` blocks, ``pair_equal``
    pairs whose restrictive block is the weak one plus at most one range
    (how SubqueryToGMDJ builds ALL) and ``need_positive`` on a one-block
    GMDJ have a ``t_b`` and counters with 1-D derivations.
    """
    if not rule.can_doom:
        if rule.need_at_least or len(blocks) != 1:
            raise NpUnsupported(
                "assurance beyond need_positive on a one-block GMDJ")
        (plan,) = blocks.values()
        return plan.first_match(), None
    t = np.full(n_base, _NEVER, dtype=np.int64)
    zero = set(rule.must_be_zero)
    for index in zero:
        t = np.minimum(t, blocks[index].first_match())
    weak_of: dict[int, _RangeBlock] = {}
    for restrictive, weak in rule.pair_equal:
        strict, loose = blocks[restrictive], blocks[weak]
        extra = strict.shape.conjuncts - loose.shape.conjuncts
        if not loose.shape.conjuncts <= strict.shape.conjuncts \
                or loose.shape.band is not None \
                or (extra and (strict.shape.band is None
                               or extra != {strict.shape.band[3]})):
            raise NpUnsupported("a pair_equal whose restrictive block is "
                                "not its weak block plus one range")
        if extra:
            t = np.minimum(t, strict.first_escape())
        weak_of.setdefault(restrictive, loose)
    counted: dict[int, _RangeBlock | None] = {}
    for index, plan in blocks.items():
        if index in zero:
            counted[index] = None  # t_b comes no later than its first match
        elif plan.shape.band is None:
            counted[index] = plan
        elif index in weak_of:
            # Before t_b every weak match is a restrictive one too.
            counted[index] = weak_of[index]
        else:
            raise NpUnsupported("a range block's updates cut at t_b need "
                                "a dominance count")
    return t, counted


def _take_ranges(every_block: Sequence[tuple[_BlockRuntime, ThetaBlock]],
                 rule: CompletionRule | None, pairs: _PairColumns,
                 n_base: int, total: int,
                 ) -> tuple[dict[int, _RangeBlock], tuple | None, list[str]]:
    """The scan blocks the range form answers, by block index; under a
    completion rule ``(t, counted)`` of :func:`_range_completion`; and
    why each scan block it does not answer was declined.

    Blocks are independent without a rule (or under one that can neither
    doom nor assure), so each is taken or declined alone.  A rule couples
    them: the range form then takes every block or none.
    """
    taken: dict[int, _RangeBlock] = {}
    declined: list[str] = []
    for runtime, block in every_block:
        if runtime.uses_hash or runtime.invariant:
            continue
        shape = range_shape(block.condition, pairs.base.schema,
                            pairs.detail.schema)
        try:
            if isinstance(shape, str):
                raise NpUnsupported(shape)
            taken[runtime.index] = _RangeBlock(runtime, block, shape, pairs,
                                               n_base, total)
        except NpUnsupported as exc:
            declined.append(f"block {runtime.index}: {exc.reason}")
    if not taken or rule is None or not rule.useful:
        return taken, None, declined
    try:
        if len(taken) < len(every_block):
            raise NpUnsupported("completion couples it to a block the "
                                "range form does not take")
        completion = _range_completion(rule, taken, n_base)
    except NpUnsupported as exc:
        declined.extend(f"block {index}: {exc.reason}" for index in taken)
        return {}, None, declined
    return taken, completion, declined


def _row_evaluations(t: Any, n_base: int, total: int) -> int:
    """Residual evaluations of a block that tests every detail row against
    each base tuple — a scan block in either form, an invariant block
    (``n_base`` 1) — derived in 1-D: per base tuple the rows up to and
    including its completion row ``t_b``, Σ_b min(t_b, |R| − 1) + 1;
    |B|·|R| without completion (``t`` None)."""
    if t is None:
        return n_base * total
    return int(np.sum(np.minimum(t, total - 1) + 1))


def _finish_ranges(ranged: dict[int, _RangeBlock], completion: tuple | None,
                   result: "ArrayScan", stats: IOStats, n_base: int,
                   total: int) -> None:
    """Counters and finalized columns of the range-form blocks.

    The counters are the row kernel's logical ones, derived per base
    tuple in 1-D: a block with a residual evaluates it against every
    row up to ``t_b`` (:func:`_row_evaluations`), and updates one
    accumulator per spec for each match —
    all of them without completion, those before ``t_b`` under a doom,
    the one at ``t_b`` under assurance.  No ``index_*`` counter moves:
    a scan block has no key structure.
    """
    t, counted = completion if completion is not None else (None, None)
    evaluated = _row_evaluations(t, n_base, total)
    for index in sorted(ranged):
        plan = ranged[index]
        if plan.shape.has_residual:
            stats.predicate_evals += evaluated
        if t is None:
            updates = int(np.sum(plan.matches()))
        elif counted is None:
            updates = int(np.count_nonzero(t != _NEVER))
        else:
            source = counted[index]
            updates = 0 if source is None \
                else int(np.sum(source.matches_before(t)))
        stats.aggregate_updates += updates * len(plan.specs)
        columns = result.columns[index] = plan.columns(
            t if counted is None else None,  # t only under assurance
            n_base, total)
        for spec, column in zip(plan.specs, columns):
            result._forms[spec.spec.output_name] = column
    result.range_index = tuple(ranged[index].index_state
                               for index in sorted(ranged))


# -- the tiled scan ------------------------------------------------------------


class _NpBlock:
    """One θ block planned for the tiled scan.

    A hash block narrows R before any pair exists: ``rows`` are the
    detail rows θ can admit — in a bucket, through the constant key
    components' ``row_filter``, and TRUE under every residual conjunct
    that reads detail columns alone — found once per scan; ``reach`` the
    pairs they expand to, cumulatively (None at fanout <= 1: one each);
    ``residual`` the rest, which reads the base and runs over those
    pairs only.  A scan or invariant block keeps its whole residual,
    over its pairs or (``detail_only``) its rows.  No block counts its
    residual evaluations while it walks: they are derived afterwards
    (:meth:`_HashMatch.evaluations`, :func:`_row_evaluations`).
    """

    __slots__ = ("runtime", "index", "residual", "detail_only", "match",
                 "join_index", "row_filter", "rows", "reach", "next_row",
                 "pairs_built", "specs", "updates", "hits")

    def __init__(self, runtime: _BlockRuntime, block: ThetaBlock,
                 pairs: _PairColumns,
                 matches: dict[tuple, tuple[_HashMatch, str]],
                 n_base: int, total: int) -> None:
        self.runtime = runtime
        self.index = runtime.index
        detail = pairs.detail
        factored = runtime.factored
        self.residual = factored.residual
        self.detail_only = False
        self.match: _HashMatch | None = None
        self.join_index: str | None = None
        self.row_filter = None
        if runtime.uses_hash:
            self._plan_match(factored.left_keys, factored.right_keys, pairs,
                             matches, n_base, total)
            self._admit(detail, total)
        else:
            self.detail_only = self.residual is not None and refers_only_to(
                self.residual, detail.schema)
        groups = 1 if runtime.invariant else n_base
        self.specs = [_SpecArrays(spec, detail, groups, total)
                      for spec in block.aggregates]
        self.updates = 0
        self.pairs_built = 0
        self.hits: tuple[Any, Any] = (None, None)

    def _plan_match(self, left_keys: Sequence[Expression],
                    right_keys: Sequence[Expression], pairs: _PairColumns,
                    matches: dict[tuple, tuple[_HashMatch, str]],
                    n_base: int, total: int) -> None:
        """One :class:`_HashMatch` over every key component that reads
        the base — shared with the blocks whose such components are the
        same, and a join index across scans (:func:`_join_index`) — and,
        for components whose base side is a constant (``r.x = 3``), this
        block's own mask over its rows."""
        base, detail = pairs.base, pairs.detail
        correlating, keys, shared_by = [], [], []
        base_filter = row_filter = None
        for left_key, right_key in zip(left_keys, right_keys):
            left = np_value(left_key, base.resolve)
            right = np_value(right_key, detail.resolve)
            detail_codes = partial(detail.word_codes, right_key, right)
            if not isinstance(left.values, np.ndarray):
                keep = _equals_constant(right, left, detail_codes, total)
                row_filter = keep if row_filter is None else row_filter & keep
                continue
            shared_by.append((repr(left_key), repr(right_key)))
            if isinstance(right.values, np.ndarray):
                correlating.append((left, right, detail_codes))
                keys.append((left_key, right_key))
            else:
                keep = _equals_constant(
                    left, right, partial(base.word_codes, left_key, left),
                    n_base)
                base_filter = keep if base_filter is None \
                    else base_filter & keep
        found = matches.get(tuple(shared_by))
        if found is None:
            found = matches[tuple(shared_by)] = _join_index(
                pairs, keys, correlating, base_filter, n_base, total)
        self.match, self.join_index = found
        self.row_filter = row_filter

    def _admit(self, detail: Columns, total: int) -> None:
        """The rows θ can admit, once over R, and the residual left for
        their pairs."""
        match = self.match
        masks = [] if self.row_filter is None else [self.row_filter]
        on_pairs = []
        if self.residual is not None:
            for conjunct in conjuncts_of(self.residual):
                if refers_only_to(conjunct, detail.schema):
                    masks.append(np_truth_mask(conjunct, detail.resolve,
                                               total))
                else:
                    on_pairs.append(conjunct)
        self.residual = conjoin(on_pairs) if on_pairs else None
        if masks:
            admit = match.row_bucket >= 0
            for mask in masks:
                admit &= mask
            self.rows = np.flatnonzero(admit)
        else:
            self.rows = match.matched()
        self.reach = None if match.row_base is not None else np.cumsum(
            match.sizes[match.row_bucket[self.rows]])
        self.next_row = 0

    def stop(self, start: int, budget: int, n_active: int,
             total: int) -> int:
        """Where a tile from row ``start`` ends so that this block builds
        at most ``budget`` pairs in it (one row's, if it alone has more)."""
        if self.runtime.invariant:
            return start + budget
        if self.match is None:
            return start + max(1, budget // max(1, n_active))
        first, rows = self.next_row, self.rows
        if first == len(rows):
            return total  # no admitted row left: nothing to build
        if self.reach is None:
            end = first + budget
        else:
            built = self.reach[first - 1] if first else 0
            end = max(first + 1, int(np.searchsorted(
                self.reach, built + budget, side="right")))
        return total if end >= len(rows) else int(rows[end])

    def scan(self, start: int, stop: int, active: Any,
             pairs: _PairColumns) -> None:
        """The θ-matches of rows ``[start, stop)``."""
        if self.runtime.invariant:
            r = np.arange(start, stop)
            b = np.zeros(stop - start, dtype=np.int64)
        elif self.match is not None:
            first = self.next_row
            self.next_row = last = int(np.searchsorted(self.rows, stop))
            b, r = self.match.pairs(self.rows[first:last])
            self.pairs_built += len(b)
        else:
            b = np.repeat(active, stop - start)
            r = np.tile(np.arange(start, stop), len(active))
        if self.residual is not None and len(b):
            if self.detail_only:
                rows = slice(start, stop)
                keep = np_truth_mask(
                    self.residual,
                    lambda ref: _gather(pairs.detail.resolve(ref), rows),
                    stop - start)[r - start]
            else:
                keep = np_truth_mask(self.residual,
                                     pairs.resolver(b, r), len(b))
            b, r = b[keep], r[keep]
        self.hits = (b, r)


class _CompletionRows:
    """Each base tuple's completion row ``t_b`` (Thm 4.1/4.2), kept as one
    event row per atom and updated from every tile's θ-matches.

    Under a doom the one event is the earliest ``must_be_zero`` match or
    ``pair_equal`` weak-only match (a running ``np.minimum.at``), and it
    is ``t_b``.  Under assurance each threshold block keeps the row of
    its k-th match — its first for k = 1; for ``need_at_least`` a stable
    sort ranks each tile's matches after the ``seen`` ones — and ``t_b``
    is the latest of those rows, ``_NEVER`` until every threshold block
    has one.  Matches past a tuple's ``t_b`` may keep arriving (the walk
    does not drop them); they move no event row.
    """

    __slots__ = ("rule", "needs", "rows", "seen", "t")

    def __init__(self, rule: CompletionRule, n_base: int) -> None:
        self.rule = rule
        self.needs = {} if rule.can_doom else rule.thresholds()
        self.rows = {index: np.full(n_base, _NEVER, dtype=np.int64)
                     for index in self.needs}
        self.seen = {index: np.zeros(n_base, dtype=np.int64)
                     for index, count in self.needs.items() if count > 1}
        self.t = np.full(n_base, _NEVER, dtype=np.int64)

    def update(self, blocks: dict[int, _NpBlock], start: int,
               stop: int) -> None:
        """Fold in the matches of rows ``[start, stop)``."""
        rule = self.rule
        if rule.can_doom:
            for index in rule.must_be_zero:
                np.minimum.at(self.t, *blocks[index].hits)
            span = stop - start
            for restrictive, weak in rule.pair_equal:
                b, r = blocks[weak].hits
                strict_b, strict_r = blocks[restrictive].hits
                alone = np.isin(b * span + (r - start),
                                strict_b * span + (strict_r - start),
                                assume_unique=True, invert=True)
                np.minimum.at(self.t, b[alone], r[alone])
            return
        for index, count in self.needs.items():
            b, r = blocks[index].hits
            if count > 1 and len(b):
                order = np.argsort(b, kind="stable")  # keeps rows ascending
                b, r = b[order], r[order]
                first = np.flatnonzero(np.concatenate(
                    ([True], b[1:] != b[:-1])))
                sizes = np.diff(np.append(first, len(b)))
                seen = self.seen[index]
                rank = np.arange(len(b)) - np.repeat(first - seen[b[first]],
                                                     sizes)
                seen[b[first]] += sizes
                reached = rank == count - 1  # the k-th match of this block
                b, r = b[reached], r[reached]
            np.minimum.at(self.rows[index], b, r)
        rows = list(self.rows.values())
        self.t = rows[0] if len(rows) == 1 else np.maximum.reduce(rows)


class ArrayScan:
    """What one :func:`run_numpy_scan` produced.

    ``python_blocks`` are the blocks with no exact array form — untouched
    (no counters, no status changes), to be run on the python kernel;
    ``reasons`` the human-readable block- and spec-level fallback notes
    for EXPLAIN ANALYZE; ``columns[block index]`` a taken block's
    finalized aggregates, one per spec: its array form, or a value list
    when it was accumulated per value in Python; ``key_lookup`` /
    ``shared_keys`` / ``join_index`` say, per taken hash block, how its
    detail keys were resolved, how many blocks share its key structure,
    whether this scan ``built`` that structure or ``reused`` a join
    index, how many detail rows θ admitted (``rows_admitted``) and how
    many ``(base, row)`` pairs the walk built from them
    (``pairs_built``); ``forms`` says, per block the kernel ran, whether
    it walked ``pairs`` or was answered in ``range`` form,
    ``range_index`` per range-form block whether its sorted index was
    ``built`` or ``reused``, and ``range_declined`` why each other scan
    block was not; ``tiles`` is how many detail-row tiles the scan
    walked (a scan whose blocks all took the range form reads R once,
    as one tile).
    """

    __slots__ = ("python_blocks", "reasons", "columns", "key_lookup",
                 "shared_keys", "join_index", "rows_admitted", "pairs_built",
                 "forms", "range_index", "range_declined", "tiles", "_forms",
                 "_base")

    def __init__(self, base: Columns) -> None:
        self.python_blocks: list[tuple[_BlockRuntime, ThetaBlock]] = []
        self.reasons: list[str] = []
        self.columns: dict[int, list[NpValue | list]] = {}
        self.key_lookup: tuple[str, ...] = ()
        self.shared_keys: tuple[int, ...] = ()
        self.join_index: tuple[str, ...] = ()
        self.rows_admitted: tuple[int, ...] = ()
        self.pairs_built: tuple[int, ...] = ()
        self.forms: tuple[str, ...] = ()
        self.range_index: tuple[str, ...] = ()
        self.range_declined: tuple[str, ...] = ()
        self.tiles = 0
        self._forms: dict[str, NpValue] = {}
        self._base = base

    def surviving_rows(self, status: bytearray, selection: Expression,
                       output_schema: Schema, stats: IOStats) -> Any:
        """The fused selection over columns: a bool per base row.

        Doomed rows are gone, assured rows bypass the selection, and the
        ACTIVE rows are held to it in one
        :func:`~repro.algebra.npcompile.np_truth_mask` over base columns
        ++ the finalized aggregates' array forms.  When the selection —
        or a column it reads: a per-value aggregate, a block the python
        kernel ran — has no array form, the reason is noted, nothing is
        counted and None is returned: the caller decides row by row.
        """
        verdicts = np.frombuffer(status, dtype=np.uint8) if status \
            else np.empty(0, dtype=np.uint8)
        active = np.flatnonzero(verdicts == _ACTIVE)
        everyone = len(active) == len(verdicts)
        base_arity = len(self._base.schema)

        def resolve(reference: str) -> NpValue:
            position = output_schema.index_of(reference)
            if position < base_arity:
                value = self._base.by_position(position)
            else:
                name = output_schema.fields[position].name
                if name not in self._forms:
                    raise NpUnsupported(
                        f"aggregate {name} was finalized per value")
                value = self._forms[name]
            return value if everyone else _gather(value, active)

        try:
            passed = np_truth_mask(selection, resolve, len(active))
        except NpUnsupported as exc:
            self.reasons.append(f"selection: {exc.reason}")
            return None
        stats.predicate_evals += len(active)
        keep = verdicts != _DOOMED
        keep[active[~passed]] = False
        return keep

    def aggregate_columns(self, aggregates: Sequence[NpValue | list],
                          output_schema: Schema) -> list[ColumnData]:
        """Every output aggregate as a column over the base rows: array
        forms as they are, per-value lists through the storage encoder."""
        n_base = self._base.columnar.length
        fields = output_schema.fields[len(self._base.schema):]
        return [
            encode_column(aggregate, field.dtype)
            if isinstance(aggregate, list)
            else column_of_value(aggregate, n_base, field.dtype)
            for aggregate, field in zip(aggregates, fields)
        ]

    def emit(self, aggregates: Sequence[ColumnData], keep: Any,
             output_schema: Schema, stats: IOStats) -> Relation:
        """The emit phase on arrays: base columns ++ aggregate columns,
        gathered by ``keep`` (a truthy/falsy byte or bool per base row;
        None keeps all), as a column-backed relation.  No tuple is
        built; the counters are the row emit's, computed from lengths.
        """
        encoding = self._base.columnar
        columns: Sequence[ColumnData] = list(encoding.columns) \
            + list(aggregates)
        length = encoding.length
        if keep is not None:
            if not isinstance(keep, np.ndarray):
                keep = np.frombuffer(keep, dtype=np.uint8)
            picked = np.flatnonzero(keep)
            columns, length = take_columns(columns, picked, length), \
                len(picked)
        stats.tuples_output += length
        return relation_of(output_schema, columns, length)


def _broadcast(value: NpValue, n_base: int) -> NpValue:
    """An invariant block's one shared value, repeated per base row."""
    if not isinstance(value.values, np.ndarray):
        return value
    null = value.null
    return NpValue(np.repeat(value.values, n_base),
                   np.repeat(null, n_base) if isinstance(null, np.ndarray)
                   else null, value.kind)


def run_numpy_scan(
    columnar: ColumnarRelation,
    runtimes: list[_BlockRuntime],
    blocks: Sequence[ThetaBlock],
    base: Relation,
    combined_schema: Schema,
    status: bytearray,
    stats: IOStats,
    rule: CompletionRule | None = None,
) -> ArrayScan:
    """Run every θ block over pair arrays where possible.

    Blocks with no exact array form come back untouched in
    :attr:`ArrayScan.python_blocks` — all of them when ``rule`` couples
    the blocks through completion; every other block's aggregates come
    back finalized as columns.  Scan blocks the range form answers
    (:func:`_take_ranges`) build no pairs at all.
    """
    total = columnar.length
    n_base = len(base)
    # The base as columns — keys, pair residuals, the fused selection and
    # the emitted base attributes all read them.  One that carries its
    # encoding (an encoded or ``.cols`` table, the column-backed output
    # of another array operator) shares it; any other is encoded now and
    # keeps it: a stored table (scan views share its cache) for every
    # later query, a row-backed intermediate for this scan.
    base_encoding = cached_columnar(base)
    pairs = _PairColumns(Columns(base_encoding), Columns(columnar),
                         combined_schema)
    every_block = list(zip(runtimes, blocks))
    result = ArrayScan(pairs.base)
    python_blocks, reasons = result.python_blocks, result.reasons
    live: list[_NpBlock] = []
    matches: dict[tuple, tuple[_HashMatch, str]] = {}

    def give_up(runtime: _BlockRuntime, exc: NpUnsupported) -> bool:
        """Hand a block to the python kernel; True when that takes the
        whole scan along (a completion rule couples the blocks)."""
        reasons.append(f"block {runtime.index}: {exc.reason}")
        if rule is not None:
            python_blocks[:] = every_block
            return True
        python_blocks.append((runtime, blocks[runtime.index]))
        return False

    ranged, completion, declined = _take_ranges(every_block, rule, pairs,
                                                n_base, total)
    result.range_declined = tuple(declined)
    for runtime, block in every_block:
        if runtime.index in ranged:
            continue
        try:
            live.append(_NpBlock(runtime, block, pairs, matches, n_base,
                                 total))
        except NpUnsupported as exc:
            if give_up(runtime, exc):
                return result

    completion_rows = _CompletionRows(rule, n_base) \
        if rule is not None and rule.useful else None
    dooming = rule is not None and rule.can_doom
    t = None if completion_rows is None else completion_rows.t
    active = np.arange(n_base, dtype=np.int64)
    by_index = {plan.index: plan for plan in live}
    # Past its first tile a scan over hash blocks alone walks the rest in
    # tiles of the accumulators' compaction bound.  A scan block's pairs
    # are active bases x rows: it keeps TILE_PAIRS (larger tiles measured
    # slower there).
    hashed_only = all(plan.match is not None for plan in live)
    later_tiles = 8 * TILE_PAIRS if hashed_only else TILE_PAIRS
    tile_pairs = TILE_PAIRS
    start = 0
    while start < total and live and (rule is None or len(active)):
        result.tiles += 1
        stop = min(total, *(plan.stop(start, tile_pairs, len(active), total)
                            for plan in live))
        tile_pairs = later_tiles
        for plan in list(live):
            try:
                plan.scan(start, stop, active, pairs)
            except NpUnsupported as exc:
                if give_up(plan.runtime, exc):
                    return result
                live.remove(plan)
        if completion_rows is not None:
            completion_rows.update(by_index, start, stop)
            t = completion_rows.t
        for plan in live:
            b, r = plan.hits
            if t is not None:
                # Truncation at t_b: the row kernel stops evaluating a
                # tuple after its completion row, and a doomed tuple's
                # completion row itself updates nothing.
                keep = r < t[b] if dooming else r <= t[b]
                b, r = b[keep], r[keep]
            plan.updates += len(b) * len(plan.specs)
            for spec in plan.specs:
                spec.add(b, r, columnar)
        if t is not None:
            if t.max() != _NEVER:
                break  # every tuple has completed
            if not hashed_only:
                # A scan block pairs the tuples still open, and only them.
                active = active[t[active] == _NEVER]
        start = stop

    # Counters and status bytes are written only now, so an
    # NpUnsupported above never leaves partial state behind.
    hashed = [plan for plan in live if plan.match is not None]
    sharing = Counter(id(plan.match) for plan in hashed)
    result.key_lookup = tuple(plan.match.lookup for plan in hashed)
    result.shared_keys = tuple(sharing[id(plan.match)] for plan in hashed)
    result.join_index = tuple(plan.join_index for plan in hashed)
    result.rows_admitted = tuple(len(plan.rows) for plan in hashed)
    result.pairs_built = tuple(plan.pairs_built for plan in hashed)
    for plan in live:
        if plan.match is not None:
            stats.index_probes += total
            if plan.runtime.factored.residual is not None:
                stats.predicate_evals += plan.match.evaluations(
                    t, plan.row_filter)
        elif plan.residual is not None:
            stats.predicate_evals += _row_evaluations(
                t, 1 if plan.runtime.invariant else n_base, total)
        stats.aggregate_updates += plan.updates
        columns = result.columns[plan.index] = []
        for spec in plan.specs:
            column = spec.finalize()
            if isinstance(column, list):
                if plan.runtime.invariant:  # one shared group
                    column = column * n_base
            else:
                if plan.runtime.invariant:
                    column = _broadcast(column, n_base)
                result._forms[spec.spec.output_name] = column
            columns.append(column)
            if spec.reason is not None:
                reasons.append(f"block {plan.index} "
                               f"{spec.spec.output_name}: {spec.reason}")
    if ranged:
        _finish_ranges(ranged, completion, result, stats, n_base, total)
        if completion is not None:
            t = completion[0]
        if not live and total:
            result.tiles = 1
    result.forms = tuple("range" if index in ranged else "pairs"
                         for index in sorted({plan.index for plan in live}
                                             | set(ranged)))
    if t is not None:
        finished = np.flatnonzero(t != _NEVER)
        if len(finished):
            stats.completed_tuples += len(finished)
            np.frombuffer(status, dtype=np.uint8)[finished] = \
                _DOOMED if dooming else _ASSURED
    return result
