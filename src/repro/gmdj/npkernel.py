"""Whole-array GMDJ detail scan: the numpy backend.

The python batch kernel (:mod:`repro.gmdj.vectorized`) amortizes closure
dispatch across chunks but still executes one generated Python frame per
chunk element.  This kernel evaluates a GMDJ — with or without a
completion rule — over arrays of candidate ``(base, row)`` **pairs**:

* the detail relation is walked in row *tiles*; per tile every θ block
  materializes its candidate pairs (a hash block from the key match
  below, a scan block as active-bases × tile-rows, an invariant block
  as the rows themselves), evaluates its residual **once** over the
  gathered pair arrays (:mod:`repro.algebra.npcompile`; base columns
  come from the base relation's columnar encoding) and keeps the
  matching pairs;
* hash matching looks every detail key up in the ≤ \\|B\\| distinct
  base keys (``np.searchsorted``, one pass per key component) — no
  Python-level probe per detail key, and duplicate base keys fan out
  through a CSR bucket table;
* distributive/algebraic aggregates (Gray et al.) reduce grouped over
  the surviving pairs with ``ufunc.at`` — which accumulates strictly in
  pair order, so float sums keep Python's sequential addition order
  bit-for-bit — into per-spec arrays that are written back to the
  accumulator objects once, after the last tile.  ``COUNT(DISTINCT x)``
  is a sorted unique over ``(base, value-code)`` pairs.

Completion is truncation
------------------------
A base tuple's completion (Thm 4.1/4.2) depends only on *its own*
θ-matches in detail-row order, so it is a pure function of the pair
arrays: its **first completion row** ``t_b`` is the earliest row that
matches a ``must_be_zero`` block or a ``pair_equal`` weak block without
its restrictive one (doom), or the row at which the last
``need_positive``/``need_at_least`` threshold is reached (assure).
Everything the row kernel would have done follows by cutting the pair
arrays at ``t_b``: residual evaluations are the candidate pairs with
``r <= t_b``, aggregate updates the matching pairs with ``r < t_b``
(doom) or ``r <= t_b`` (assure, whose partial aggregates are thereby
exact), and the completion-free scan is the same code with
``t_b = ∞``.  Completed tuples leave the candidate set between tiles,
so θ work physically shrinks as the paper describes, while the
:class:`~repro.storage.iostats.IOStats` counters stay the *logical*
ones — identical to the row kernel's whatever the tile size.

Identity contract
-----------------
Same rows, same order, same counters as the python kernels
(``index_probes`` counts every detail row per hash block).  Work with
no *exact* whole-array form — object-encoded columns, int64 overflow
hazards, NaN or string min/max, ``SUM``/``AVG(DISTINCT)`` — falls back:
an aggregate drops to per-value Python accumulation over the already
known surviving pairs; an unsupported θ (:class:`NpUnsupported`) hands
the block — under a completion rule, where blocks are coupled, the
whole scan — back to the python kernel.  Nothing is written to the
caller's counters, accumulators or status bytes before the last tile
has succeeded, so a fallback never sees partial state.  Fallback
reasons are returned so EXPLAIN ANALYZE can surface them.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Callable, Sequence

from repro.algebra.aggregates import AggregateSpec
from repro.algebra.analysis import factor_condition, refers_only_to
from repro.algebra.compile import compile_batch_values
from repro.algebra.npcompile import (
    _FLOAT_EXACT,
    _max_abs,
    NpUnsupported,
    NpValue,
    np_truth_mask,
    np_value,
    value_of_column,
)
from repro.gmdj.completion import CompletionRule
from repro.gmdj.evaluate import _ASSURED, _DOOMED, _BlockRuntime
from repro.gmdj.operator import ThetaBlock
from repro.storage.columnar import (
    ColumnarRelation,
    cached_columnar,
    is_encoded,
)
from repro.storage.iostats import IOStats
from repro.storage.npcolumns import column_array, require_numpy
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


class _Columns:
    """Whole-column NpValues of one relation, wrapped on first use."""

    __slots__ = ("schema", "_load", "_by_position", "_by_ref")

    def __init__(self, schema: Schema,
                 load: Callable[[int], Any]) -> None:
        self.schema = schema
        self._load = load
        self._by_position: dict[int, NpValue] = {}
        self._by_ref: dict[str, NpValue] = {}

    def by_position(self, position: int) -> NpValue:
        value = self._by_position.get(position)
        if value is None:
            column = self._load(position)
            if column is None:
                field = self.schema.fields[position]
                raise NpUnsupported(
                    f"object-encoded column {field.full_name}")
            value = self._by_position[position] = value_of_column(column)
        return value

    def resolve(self, reference: str) -> NpValue:
        value = self._by_ref.get(reference)
        if value is None:
            position = self.schema.index_of(reference)
            value = self._by_ref[reference] = self.by_position(position)
        return value


def _base_columns(base: Relation) -> _Columns:
    """The base side of pair residuals.

    A stored table that already carries its encoding shares it; any
    other base (a derived intermediate) encodes just the columns θ
    touches, one at a time.
    """
    if is_encoded(base):
        columnar = cached_columnar(base)
        return _Columns(base.schema, lambda p: column_array(columnar, p))
    return _Columns(base.schema, lambda p: column_array(
        ColumnarRelation.from_column(base, p), 0))


def _gather(value: NpValue, idx: Any, np: Any) -> NpValue:
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

    def __init__(self, base: _Columns, detail: _Columns,
                 combined_schema: Schema) -> None:
        self.base = base
        self.detail = detail
        self.combined_schema = combined_schema
        self.base_arity = len(base.schema)
        self._positions: dict[str, int] = {}

    def resolver(self, b: Any, r: Any, np: Any) -> Callable[[str], NpValue]:
        def resolve(reference: str) -> NpValue:
            position = self._positions.get(reference)
            if position is None:
                position = self._positions[reference] = \
                    self.combined_schema.index_of(reference)
            if position < self.base_arity:
                return _gather(self.base.by_position(position), b, np)
            return _gather(
                self.detail.by_position(position - self.base_arity), r, np)
        return resolve


# -- hash matching -------------------------------------------------------------


def _lookup(distinct: Any, codes: Any, np: Any) -> Any:
    """Position of each code in sorted ``distinct``; -1 where absent."""
    if not len(distinct):
        return np.full(len(codes), -1, dtype=np.int64)
    position = np.searchsorted(distinct, codes)
    np.minimum(position, len(distinct) - 1, out=position)
    return np.where(distinct[position] == codes, position, -1)


def _component_codes(parts: list, key: NpValue, total: int,
                     np: Any) -> tuple[Any, Any, int]:
    """Code one key component on both sides of the equality.

    ``parts`` holds the component's value per bucket (never None).
    Returns ``(bucket_codes, row_codes, n_codes)`` where two codes are
    equal exactly when the Python values are (``1 == 1.0 == True``, a
    string never equals a number) and -1 marks "matches nothing".
    """
    values = key.values
    if not isinstance(values, np.ndarray):  # a literal key component
        hits = [0 if (isinstance(part, str) == (key.kind == "str")
                      and part == values) else -1 for part in parts]
        return (np.array(hits, dtype=np.int64),
                np.zeros(total, dtype=np.int64), 1)
    if key.kind == "str":
        code_of = {word: code
                   for code, word in enumerate(key.dictionary or [])}
        wanted = np.array([code_of.get(part, -1)
                           if isinstance(part, str) else -1
                           for part in parts], dtype=np.int64)
        distinct = np.unique(wanted[wanted >= 0])
        table = np.full(len(key.dictionary or []), -1, dtype=np.int64)
        table[distinct] = np.arange(len(distinct))
        row_codes = table[values] if len(table) else \
            np.full(total, -1, dtype=np.int64)
        return _lookup(distinct, wanted, np), row_codes, len(distinct)
    numeric = [i for i, part in enumerate(parts)
               if isinstance(part, (int, float))]
    numbers = [parts[i] for i in numeric]
    if values.dtype.kind == "f" or any(type(n) is float for n in numbers):
        # The equality runs in float64; an int beyond 2**53 on either
        # side would round where Python compares exactly.
        if any(type(n) is not float and abs(n) >= _FLOAT_EXACT
               for n in numbers) or (
                values.dtype.kind in "iu"
                and _max_abs(key) >= _FLOAT_EXACT):
            raise NpUnsupported("int/float key equality beyond exact "
                                "float range")
        dtype = np.float64
    else:
        dtype = np.int64
    try:
        wanted = np.array(numbers, dtype=dtype)
    except OverflowError:
        raise NpUnsupported("base key beyond int64 range") from None
    distinct = np.unique(wanted)
    bucket_codes = np.full(len(parts), -1, dtype=np.int64)
    bucket_codes[numeric] = _lookup(distinct, wanted, np)
    return (bucket_codes,
            _lookup(distinct, values.astype(dtype, copy=False), np),
            len(distinct))


class _HashMatch:
    """Detail rows matched to base buckets: ``row_bucket`` + a CSR table.

    ``row_bucket[r]`` is the bucket detail row ``r`` falls in (-1: NULL
    key component or no equal base key); bucket ``k`` holds base indices
    ``bases[starts[k]:starts[k] + sizes[k]]`` in ascending order, so
    duplicate base keys fan out.
    """

    __slots__ = ("row_bucket", "starts", "sizes", "bases", "fanout")

    def __init__(self, buckets: dict, keys: Sequence[NpValue], total: int,
                 np: Any) -> None:
        members = list(buckets.values())
        self.sizes = np.fromiter(map(len, members), dtype=np.int64,
                                 count=len(members))
        self.starts = np.cumsum(self.sizes) - self.sizes
        self.bases = np.fromiter(chain.from_iterable(members),
                                 dtype=np.int64,
                                 count=int(self.sizes.sum()))
        self.fanout = int(self.sizes.max()) if len(members) else 0
        bucket_keys = list(buckets)
        bucket_code = row_code = None
        n_codes = 0
        for position, key in enumerate(keys):
            if key.kind == "null" or key.null is True:
                # A NULL key component never matches.
                row_code = np.full(total, -1, dtype=np.int64)
                break
            parts = [bucket_key[position] for bucket_key in bucket_keys]
            part_codes, codes, radix = _component_codes(parts, key, total, np)
            if key.null is not False:
                codes = np.where(key.null, -1, codes)
            if position == 0:
                bucket_code, row_code, n_codes = part_codes, codes, radix
                continue
            bucket_code = np.where((bucket_code >= 0) & (part_codes >= 0),
                                   bucket_code * radix + part_codes, -1)
            row_code = np.where((row_code >= 0) & (codes >= 0),
                                row_code * radix + codes, -1)
            # Re-densify against the live key prefixes: codes stay below
            # |B| whatever the number of components.
            distinct = np.unique(bucket_code[bucket_code >= 0])
            bucket_code = _lookup(distinct, bucket_code, np)
            row_code = _lookup(distinct, row_code, np)
            n_codes = len(distinct)
        bucket_of = np.full(n_codes + 1, -1, dtype=np.int64)
        if bucket_code is not None:
            live = np.flatnonzero(bucket_code >= 0)
            bucket_of[bucket_code[live]] = live
        self.row_bucket = bucket_of[row_code]  # code -1 reads the spare -1

    def pairs(self, start: int, stop: int, np: Any) -> tuple[Any, Any]:
        """Candidate pairs of rows ``[start, stop)``, row-major."""
        bucket = self.row_bucket[start:stop]
        hit = np.flatnonzero(bucket >= 0)
        bucket = bucket[hit]
        r = hit + start
        if self.fanout <= 1:
            return self.bases[self.starts[bucket]], r
        sizes = self.sizes[bucket]
        r = np.repeat(r, sizes)
        within = np.arange(len(r)) - np.repeat(np.cumsum(sizes) - sizes,
                                               sizes)
        return self.bases[np.repeat(self.starts[bucket], sizes) + within], r


# -- aggregate accumulation ----------------------------------------------------


class _SpecArrays:
    """One aggregate's accumulators as arrays over the block's groups.

    ``mode`` is the array reduction in use — ``"star"``, ``"count"``,
    ``"sum"``, ``"avg"``, ``"min"``, ``"max"``, ``"distinct"`` (count
    only) or ``"skip"`` (a NULL argument: every add is a no-op) — or
    ``"python"``: per-value accumulation into private accumulator
    objects, for anything without an exact array form.  ``reason`` says
    why, for the fallback report.
    """

    __slots__ = ("spec", "mode", "reason", "value", "counts", "totals",
                 "seen", "pending", "pending_size", "radix", "private",
                 "value_fn")

    def __init__(self, spec: AggregateSpec, detail: _Columns, groups: int,
                 total: int, np: Any) -> None:
        self.spec = spec
        self.reason: str | None = None
        self.value: NpValue | None = None
        self.counts = self.totals = self.seen = None
        self.private: dict[int, Any] = {}
        self.value_fn = None
        self.mode = "star" if spec.argument is None else \
            self._plan(spec, detail, groups, total, np)
        if self.mode not in ("python", "skip"):
            self.counts = np.zeros(groups, dtype=np.int64)

    def _plan(self, spec: AggregateSpec, detail: _Columns, groups: int,
              total: int, np: Any) -> str:
        if spec.distinct and spec.function != "count":
            # First-seen order decides a float SUM/AVG(DISTINCT).
            self.reason = "holistic DISTINCT aggregate"
            return "python"
        try:
            value = self.value = np_value(spec.argument, detail.resolve)
        except NpUnsupported as exc:
            self.reason = exc.reason
            return "python"
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
            distinct = np.unique(present)
            if groups * max(1, len(distinct)) >= _SUM_SAFE:
                self.reason = "COUNT(DISTINCT) code space beyond int64"
                return "python"
            # The argument becomes its value code; NULLs keep their mask.
            self.value = NpValue(
                np.searchsorted(distinct, values), value.null, "num")
            self.radix = max(1, len(distinct))
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

    def add(self, b: Any, r: Any, columnar: ColumnarRelation,
            np: Any) -> None:
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
        if mode == "distinct":
            self.pending.append(b * self.radix + values)
            self.pending_size += len(b)
            if self.pending_size > max(len(self.seen), 8 * TILE_PAIRS):
                self._compact(np)  # keeps memory O(distinct pairs)
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

    def _compact(self, np: Any) -> None:
        self.seen = np.unique(np.concatenate([self.seen, *self.pending]))
        self.pending = []
        self.pending_size = 0

    def commit(self, position: int, targets: Sequence[list],
               np: Any) -> None:
        """Write the arrays back into the caller's accumulator objects:
        ``targets[group][position]`` is this aggregate's, per group."""
        mode = self.mode
        if mode == "skip":
            return
        if mode == "python":
            for group, accumulator in self.private.items():
                targets[group][position] = accumulator
            return
        if mode == "distinct":
            self._compact(np)
            self.counts = np.bincount(self.seen // self.radix,
                                      minlength=len(self.counts))
        touched = np.flatnonzero(self.counts)
        groups = touched.tolist()
        counts = self.counts[touched].tolist()
        if mode in ("star", "count"):
            for group, count in zip(groups, counts):
                targets[group][position].count = count
            return
        if mode == "distinct":
            # Only the count survives: DISTINCT scans are never merged.
            for group, count in zip(groups, counts):
                targets[group][position].inner.count = count
            return
        totals = self.totals[touched].tolist()
        for group, count, total in zip(groups, counts, totals):
            accumulator = targets[group][position]
            if mode == "sum":
                accumulator.total, accumulator.seen = total, True
            elif mode == "avg":
                accumulator.total, accumulator.count = total, count
            else:
                accumulator.best = total


# -- the tiled scan ------------------------------------------------------------


class _NpBlock:
    """One θ block planned for the tiled scan."""

    __slots__ = ("runtime", "index", "residual", "detail_only", "match",
                 "specs", "evals", "updates", "cand", "hits")

    def __init__(self, runtime: _BlockRuntime, block: ThetaBlock,
                 base: Relation, detail: _Columns, n_base: int, total: int,
                 np: Any) -> None:
        self.runtime = runtime
        self.index = runtime.index
        factored = factor_condition(block.condition, base.schema,
                                    detail.schema)
        self.residual = factored.residual
        self.detail_only = self.residual is not None and refers_only_to(
            self.residual, detail.schema)
        self.match = _HashMatch(
            runtime.buckets,
            [np_value(key, detail.resolve) for key in factored.right_keys],
            total, np) if runtime.uses_hash else None
        groups = 1 if runtime.invariant else n_base
        self.specs = [_SpecArrays(spec, detail, groups, total, np)
                      for spec in block.aggregates]
        self.evals = 0
        self.updates = 0
        self.cand: tuple[Any, Any] | None = None
        self.hits: tuple[Any, Any] = (None, None)

    def width(self, n_active: int) -> int:
        """Candidate pairs one detail row can contribute."""
        if self.runtime.invariant:
            return 1
        return self.match.fanout if self.match is not None else n_active

    def scan(self, start: int, stop: int, active: Any, t: Any,
             shrunk: bool, pairs: _PairColumns, np: Any) -> None:
        """Candidates and θ-matches of rows ``[start, stop)``."""
        if self.runtime.invariant:
            r = np.arange(start, stop)
            b = np.zeros(stop - start, dtype=np.int64)
        elif self.match is not None:
            b, r = self.match.pairs(start, stop, np)
            if shrunk:
                keep = t[b] == _NEVER
                b, r = b[keep], r[keep]
        else:
            b = np.repeat(active, stop - start)
            r = np.tile(np.arange(start, stop), len(active))
        self.cand = None
        if self.residual is not None and len(b):
            self.cand = (b, r)
            if self.detail_only:
                rows = slice(start, stop)
                keep = np_truth_mask(
                    self.residual,
                    lambda ref: _gather(pairs.detail.resolve(ref), rows, np),
                    stop - start)[r - start]
            else:
                keep = np_truth_mask(self.residual,
                                     pairs.resolver(b, r, np), len(b))
            b, r = b[keep], r[keep]
        self.hits = (b, r)


def _doom_events(blocks: dict[int, _NpBlock], rule: CompletionRule,
                 start: int, stop: int, np: Any) -> tuple[Any, Any]:
    """The tile's dooming pairs: Thm 4.2 matches and weak-only matches."""
    events = [blocks[index].hits for index in rule.must_be_zero]
    span = stop - start
    for restrictive, weak in rule.pair_equal:
        b, r = blocks[weak].hits
        strict_b, strict_r = blocks[restrictive].hits
        alone = np.isin(b * span + (r - start),
                        strict_b * span + (strict_r - start),
                        assume_unique=True, invert=True)
        events.append((b[alone], r[alone]))
    return (np.concatenate([b for b, _ in events]),
            np.concatenate([r for _, r in events]))


class _Assurance:
    """Thm 4.1 bookkeeping: matches still needed, per threshold block."""

    __slots__ = ("needs", "open", "latest")

    def __init__(self, rule: CompletionRule, n_base: int, np: Any) -> None:
        self.needs = {index: np.full(n_base, count, dtype=np.int64)
                      for index, count in rule.thresholds().items()}
        self.open = np.full(n_base, len(self.needs), dtype=np.int64)
        self.latest = np.full(n_base, -1, dtype=np.int64)

    def assured(self, blocks: dict[int, _NpBlock], np: Any,
                ) -> tuple[Any, Any]:
        """Bases whose last threshold this tile reaches, and at which row."""
        done = []
        for index, needs in self.needs.items():
            b, r = blocks[index].hits
            waiting = needs[b] > 0
            b, r = b[waiting], r[waiting]
            if not len(b):
                continue
            order = np.argsort(b, kind="stable")  # keeps rows ascending
            b, r = b[order], r[order]
            first = np.flatnonzero(np.concatenate(
                ([True], b[1:] != b[:-1])))
            sizes = np.diff(np.append(first, len(b)))
            rank = np.arange(len(b)) - np.repeat(first, sizes)
            reached = rank == needs[b] - 1  # the k-th match of this block
            bases, rows = b[reached], r[reached]
            needs[b[first]] = np.maximum(needs[b[first]] - sizes, 0)
            self.latest[bases] = np.maximum(self.latest[bases], rows)
            self.open[bases] -= 1
            done.append(bases[self.open[bases] == 0])
        if not done:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        bases = np.concatenate(done)
        return bases, self.latest[bases]


def run_numpy_scan(
    columnar: ColumnarRelation,
    runtimes: list[_BlockRuntime],
    blocks: Sequence[ThetaBlock],
    base: Relation,
    combined_schema: Schema,
    state: list[list[Any]],
    status: bytearray,
    stats: IOStats,
    rule: CompletionRule | None = None,
) -> tuple[list[tuple[_BlockRuntime, ThetaBlock]], list[str]]:
    """Run every θ block over pair arrays where possible.

    Returns ``(python_blocks, fallback_reasons)``: blocks with no exact
    array form are untouched (no counters, no accumulator updates, no
    status changes) and must run on the python kernel — all of them
    when ``rule`` couples the blocks through completion;
    ``fallback_reasons`` collects human-readable block- and spec-level
    notes for EXPLAIN ANALYZE.
    """
    np = require_numpy()
    total = columnar.length
    n_base = len(base.rows)
    detail = _Columns(columnar.schema,
                      lambda p: column_array(columnar, p))
    pairs = _PairColumns(_base_columns(base), detail, combined_schema)
    every_block = list(zip(runtimes, blocks))
    python_blocks: list[tuple[_BlockRuntime, ThetaBlock]] = []
    reasons: list[str] = []
    live: list[_NpBlock] = []

    def give_up(runtime: _BlockRuntime, exc: NpUnsupported) -> bool:
        """Hand a block to the python kernel; True when that takes the
        whole scan along (a completion rule couples the blocks)."""
        reasons.append(f"block {runtime.index}: {exc.reason}")
        python_blocks.append((runtime, blocks[runtime.index]))
        return rule is not None

    for runtime, block in every_block:
        try:
            live.append(_NpBlock(runtime, block, base, detail, n_base,
                                 total, np))
        except NpUnsupported as exc:
            if give_up(runtime, exc):
                return every_block, reasons

    dooming = rule is not None and rule.can_doom
    assurance = _Assurance(rule, n_base, np) \
        if rule is not None and rule.can_assure else None
    t = np.full(n_base, _NEVER, dtype=np.int64)
    active = np.arange(n_base, dtype=np.int64)
    by_index = {plan.index: plan for plan in live}
    start = 0
    while start < total and live and (rule is None or len(active)):
        widest = max(plan.width(len(active)) for plan in live)
        stop = min(total, start + max(1, TILE_PAIRS // max(1, widest)))
        for plan in list(live):
            try:
                plan.scan(start, stop, active, t, len(active) < n_base,
                          pairs, np)
            except NpUnsupported as exc:
                if give_up(plan.runtime, exc):
                    return every_block, reasons
                live.remove(plan)
        cut = 0  # did a tuple complete in this tile?
        if dooming:
            doomed, rows = _doom_events(by_index, rule, start, stop, np)
            np.minimum.at(t, doomed, rows)
            cut = len(doomed)
        elif assurance is not None:
            assured, rows = assurance.assured(by_index, np)
            t[assured] = rows
            cut = len(assured)
        for plan in live:
            b, r = plan.hits
            if cut:
                # Truncation at t_b: the row kernel stops evaluating a
                # tuple after its completion row, and a doomed tuple's
                # completion row itself updates nothing.
                if plan.cand is not None:
                    cand_b, cand_r = plan.cand
                    plan.evals += int(np.count_nonzero(
                        cand_r <= t[cand_b]))
                keep = r < t[b] if dooming else r <= t[b]
                b, r = b[keep], r[keep]
            elif plan.cand is not None:
                plan.evals += len(plan.cand[0])
            plan.updates += len(b) * len(plan.specs)
            for spec in plan.specs:
                spec.add(b, r, columnar, np)
        if cut:
            active = active[t[active] == _NEVER]
        start = stop

    # Counters, accumulators and status bytes are written only now, so
    # an NpUnsupported above never leaves partial state behind.
    for plan in live:
        runtime = plan.runtime
        if runtime.uses_hash:
            stats.index_probes += total
        stats.predicate_evals += plan.evals
        stats.aggregate_updates += plan.updates
        targets = [runtime.shared_state] if runtime.invariant else \
            [row_state[plan.index] for row_state in state]
        for position, spec in enumerate(plan.specs):
            spec.commit(position, targets, np)
            if spec.reason is not None:
                reasons.append(f"block {plan.index} "
                               f"{spec.spec.output_name}: {spec.reason}")
    if rule is not None:
        finished = np.flatnonzero(t != _NEVER)
        if len(finished):
            stats.completed_tuples += len(finished)
            np.frombuffer(status, dtype=np.uint8)[finished] = \
                _DOOMED if dooming else _ASSURED
    return python_blocks, reasons
