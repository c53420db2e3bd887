"""Column-major relation storage: one ndarray per column.

A :class:`ColumnarRelation` holds the same bag of tuples as a
:class:`~repro.storage.relation.Relation`, transposed into per-attribute
:class:`ColumnData` columns, each one ndarray of values:

* ``INTEGER`` → ``int64`` (an *object* column — a plain list — when a
  Python int overflows 64 bits: SQL semantics keep arbitrary precision);
* ``FLOAT``   → ``float64``;
* ``BOOLEAN`` → ``bool``;
* ``STRING``  → dictionary encoding: ``int32`` codes plus the list of
  distinct values (OLAP detail tables repeat their dimension strings
  heavily, so the dictionary is tiny relative to the column).

NULLs are carried out-of-band in a per-column bool validity ndarray
(True = present), so the value arrays never need an in-band sentinel.
The conversion is lossless in both directions: ``to_relation``
reproduces the original rows exactly, duplicates and NULLs included, in
the same order.  A column whose values have no array form (mixed types,
>64-bit ints) is an object column; the array operators fall back to
rows for expressions that touch it.

Whether a column needs a mask is this module's decision alone: the
encoder reads every value anyway, so a typed column in which it saw no
NULL comes out with ``valid=None`` ("all present") — no mask is
allocated and the kernels skip every mask operation on it.  There is
one encoder and one encoding per stored relation
(:func:`cached_columnar`); nothing upstream tells storage which columns
are NULL-free.

An encoding is a value: nothing writes to one after it is built.  A
write to the table makes the next one — :meth:`ColumnarRelation.appended`
concatenates each column with the encoder's output for the new rows, so
an insert costs one copy per column, not a re-transposition of every
row, and a reader that already resolved the old encoding keeps scanning
exactly the arrays it had.

The row-at-a-time consumers (row output, the python batch kernel) ask
for :meth:`ColumnarRelation.values`, a decoded plain list with ``None``
for NULL, computed once per column and cached.  The columns an array
operator produces are :class:`ColumnData` too: :func:`relation_of`
wraps them as a column-backed relation, and :func:`take_columns` /
:func:`slice_column` are the two ways an operator restricts them to
some of their rows.
"""

from __future__ import annotations

from array import array
from typing import Any, Sequence

import numpy as np

from repro.storage.relation import Relation
from repro.storage.schema import Schema
from repro.storage.types import DataType

_INT64_MIN = -(2 ** 63)
_INT64_MAX = 2 ** 63 - 1


class ColumnData:
    """One attribute's values: an ndarray plus a validity mask.

    ``data`` is an ``int64`` / ``float64`` / ``bool`` / ``int32``
    (dictionary codes, with ``dictionary`` the decoded string table)
    ndarray for the typed kinds, a plain list for ``"object"``.
    ``valid`` is a bool ndarray (True = present), or ``None`` when the
    encoder saw no NULL and the all-True mask is not materialized.
    """

    __slots__ = ("kind", "data", "valid", "dictionary")

    def __init__(self, kind: str, data: Any, valid: Any,
                 dictionary: list | None = None) -> None:
        self.kind = kind  # "int" | "float" | "bool" | "dict" | "object"
        self.data = data
        self.valid = valid
        self.dictionary = dictionary

    def __len__(self) -> int:
        return len(self.data)

    @property
    def mask_free(self) -> bool:
        """True when this column was encoded without a validity mask."""
        return self.valid is None

    def null_count(self) -> int:
        if self.valid is None:
            return 0
        return len(self.valid) - int(np.count_nonzero(self.valid))

    def decode(self) -> list:
        """The column as a plain list with ``None`` for NULL.

        ``tolist`` turns numpy scalars into Python ints / floats / bools,
        so decoded rows are the same whether the arrays came from the
        encoder, a memory-mapped file or an array operator.
        """
        if self.kind == "object":
            return list(self.data)
        values = self.data.tolist()
        valid = None if self.valid is None else self.valid.tolist()
        if self.kind == "dict":
            dictionary = self.dictionary or []
            if valid is None:
                return [dictionary[code] for code in values]
            return [dictionary[code] if ok else None
                    for code, ok in zip(values, valid)]
        if valid is None:
            return values
        return [value if ok else None
                for value, ok in zip(values, valid)]


def _object_column(values: list) -> ColumnData:
    return ColumnData("object", list(values), np.array(
        [v is not None for v in values], dtype=bool))


def _mask(valid: bytearray) -> Any:
    """``valid`` as a bool ndarray if it marks a NULL, else None (no
    mask needed)."""
    return np.frombuffer(valid, dtype=bool) if 0 in valid else None


def encode_column(values: list, dtype: DataType) -> ColumnData:
    """Build the column of one attribute's values (None = NULL).

    Intermediate relations are constructed with ``validate=False``, so a
    column's *declared* dtype is not a guarantee about the Python types
    actually present (an INTEGER-typed intermediate may carry floats and
    vice versa).  Every value is therefore type-checked during encoding;
    any mismatch falls back to an object column — the round trip must be
    lossless for whatever bag of values the relation really holds.

    Values are written into a typed buffer that the ndarray then adopts
    without a copy.  The validity mask starts all-present and each NULL
    clears its byte; a typed column that cleared none gets
    ``valid=None``.
    """
    n = len(values)
    valid = bytearray(b"\x01") * n
    if dtype is DataType.INTEGER:
        data = array("q", bytes(8 * n))
        for position, value in enumerate(values):
            if value is None:
                valid[position] = 0
                continue
            if (type(value) is not int
                    or value < _INT64_MIN or value > _INT64_MAX):
                return _object_column(values)
            data[position] = value
        return ColumnData("int", np.frombuffer(data, dtype=np.int64),
                          _mask(valid))
    if dtype is DataType.FLOAT:
        data = array("d", bytes(8 * n))
        for position, value in enumerate(values):
            if value is None:
                valid[position] = 0
                continue
            if type(value) is not float:
                return _object_column(values)
            data[position] = value
        return ColumnData("float", np.frombuffer(data, dtype=np.float64),
                          _mask(valid))
    if dtype is DataType.BOOLEAN:
        flags = bytearray(n)
        for position, value in enumerate(values):
            if value is None:
                valid[position] = 0
                continue
            if type(value) is not bool:
                return _object_column(values)
            flags[position] = 1 if value else 0
        return ColumnData("bool", np.frombuffer(flags, dtype=bool),
                          _mask(valid))
    if dtype is DataType.STRING:
        codes = array("i", bytes(4 * n))
        dictionary: list = []
        seen: dict[str, int] = {}
        for position, value in enumerate(values):
            if value is None:
                valid[position] = 0
                continue
            if type(value) is not str:
                return _object_column(values)
            code = seen.get(value)
            if code is None:
                code = seen[value] = len(dictionary)
                dictionary.append(value)
            codes[position] = code
        return ColumnData("dict", np.frombuffer(codes, dtype=np.int32),
                          _mask(valid), dictionary)
    return _object_column(values)


def take_column(column: ColumnData, picked: Any) -> ColumnData:
    """``column`` restricted to the row positions ``picked`` (an int
    ndarray), in that order."""
    if column.kind == "object":
        values = column.data
        return _object_column([values[i] for i in picked.tolist()])
    return ColumnData(column.kind, column.data.take(picked),
                      None if column.valid is None
                      else column.valid.take(picked),
                      column.dictionary)


def take_columns(columns: Sequence[ColumnData], picked: Any,
                 length: int) -> Sequence[ColumnData]:
    """``columns`` (of ``length`` rows) restricted to the ascending row
    positions ``picked`` — themselves, untouched, when every row is."""
    if len(picked) == length:
        return columns
    return [take_column(column, picked) for column in columns]


def slice_column(column: ColumnData, window: slice) -> ColumnData:
    """``column`` restricted to a contiguous row range (views, no copy)."""
    if column.kind == "object":
        return _object_column(column.data[window])
    return ColumnData(column.kind, column.data[window],
                      None if column.valid is None else column.valid[window],
                      column.dictionary)


class ColumnarRelation:
    """A relation transposed into typed columns (see module docstring)."""

    __slots__ = ("schema", "name", "length", "columns", "_decoded",
                 "_word_codes", "_join_indexes")

    def __init__(self, schema: Schema, columns: list[ColumnData],
                 length: int, name: str | None = None) -> None:
        self.schema = schema
        self.columns = columns
        self.length = length
        self.name = name
        self._decoded: list[list | None] = [None] * len(columns)
        # Lazily-built ``word -> code`` inverses of the string
        # dictionaries (see :meth:`word_codes`).
        self._word_codes: list[dict[str, int] | None] = [None] * len(columns)
        # What the array kernel derived from these columns and another
        # encoding's (repro.gmdj.npkernel's join indexes), opaque here:
        # storage only shares the list with views and never carries it
        # into a new encoding, so it dies with this one.
        self._join_indexes: list = []

    def __len__(self) -> int:
        return self.length

    @classmethod
    def from_relation(cls, relation: Relation) -> "ColumnarRelation":
        """Transpose a row-major relation into columnar form."""
        schema = relation.schema
        rows = relation.rows
        n = len(rows)
        if rows:
            raw_columns: Sequence[Sequence[Any]] = list(zip(*rows))
        else:
            raw_columns = [[] for _ in schema.fields]
        columns = [
            encode_column(list(raw), field.dtype)
            for raw, field in zip(raw_columns, schema.fields)
        ]
        return cls(schema, columns, n,
                   name=getattr(relation, "name", None))

    def appended(self, rows: Sequence[tuple]) -> "ColumnarRelation":
        """This encoding followed by ``rows``, as a *new* encoding.

        Column by column the result equals ``from_relation`` over all
        the rows — kind, array bytes, mask, dictionary order — without
        reading the old ones again: each column is one ``np.concatenate``
        of the old array and the encoder's output for ``rows``.  The encoder's
        contracts carry over: a NULL arriving in a mask-free column
        materializes the mask then; a new string extends a *copy* of the
        dictionary, in first-seen order; a value the typed array cannot
        hold (a >64-bit int, a mistyped value) re-encodes that one
        column, and only that one, from its values
        (``columnar.append_reencodes``, column and reason on the span).
        ``self`` — its arrays, masks and dictionaries, mapped or not —
        is never written, so whoever holds it keeps a consistent
        snapshot.
        """
        if not rows:
            return self
        from repro.obs.metrics import get_registry
        from repro.obs.tracer import span

        registry = get_registry()
        registry.counter("columnar.appends").inc()
        columns: list[ColumnData] = []
        word_codes: list[dict[str, int] | None] = []
        reencoded: list[str] = []
        with span("append", kind="columnar_append", relation=self.name,
                  rows=len(rows)) as record:
            for position, (column, field, raw) in enumerate(
                    zip(self.columns, self.schema.fields, zip(*rows))):
                values = list(raw)
                delta = encode_column(values, field.dtype)
                codes = None
                if delta.kind != column.kind or column.kind == "object":
                    # No array to extend: encode the column's values
                    # afresh (an object column stays one).
                    if column.kind != "object":
                        reencoded.append(
                            f"{field.full_name}: {column.kind} buffer "
                            f"cannot hold the new rows "
                            f"(they encode as {delta.kind})")
                    grown = encode_column(column.decode() + values,
                                          field.dtype)
                else:
                    extra, dictionary = delta.data, column.dictionary
                    if column.kind == "dict":
                        codes = self.word_codes(position)
                        fresh = [word for word in delta.dictionary
                                 if word not in codes]
                        if fresh:
                            codes = dict(codes)
                            for word in fresh:
                                codes[word] = len(codes)
                            dictionary = (dictionary or []) + fresh
                        if delta.dictionary:  # else every new row is NULL
                            extra = np.array(
                                [codes[word] for word in delta.dictionary],
                                dtype=np.int32)[extra]
                            if delta.valid is not None:
                                # A NULL slot keeps the encoder's 0.
                                extra = np.where(delta.valid, extra, 0)
                    # The mask stays None while neither part holds a
                    # NULL and is materialized the moment one arrives.
                    valid = None
                    if column.valid is not None or delta.valid is not None:
                        valid = np.concatenate([
                            np.ones(len(part), dtype=bool)
                            if part.valid is None else part.valid
                            for part in (column, delta)])
                    grown = ColumnData(
                        column.kind, np.concatenate([column.data, extra]),
                        valid, dictionary)
                columns.append(grown)
                word_codes.append(codes)
            if reencoded:
                registry.counter("columnar.append_reencodes").inc(
                    len(reencoded))
                record.set(reencoded=reencoded)
        out = ColumnarRelation(self.schema, columns,
                               self.length + len(rows), name=self.name)
        out._word_codes = word_codes
        return out

    def mask_free_columns(self) -> int:
        """How many columns were encoded without a validity mask."""
        return sum(1 for column in self.columns if column.mask_free)

    def with_schema(self, schema: Schema,
                    name: str | None = None) -> "ColumnarRelation":
        """The same columns under ``schema`` (a requalified view):
        arrays, decoded lists, dictionary inverses and join indexes are
        all shared with this instance."""
        clone = ColumnarRelation(schema, self.columns, self.length, name=name)
        clone._decoded = self._decoded
        clone._word_codes = self._word_codes
        clone._join_indexes = self._join_indexes
        return clone

    def to_rows(self) -> list[tuple]:
        """The rows as tuples of plain Python values, in order."""
        decoded = [self.values(i) for i in range(len(self.columns))]
        if decoded:
            return list(zip(*decoded)) if self.length else []
        return [() for _ in range(self.length)]

    def to_relation(self) -> Relation:
        """Transpose back; reproduces the source rows exactly, in order."""
        return Relation(self.schema, self.to_rows(), name=self.name,
                        validate=False)

    def values(self, position: int) -> list:
        """Decoded value list of column ``position`` (cached)."""
        cached = self._decoded[position]
        if cached is None:
            cached = self._decoded[position] = self.columns[position].decode()
        return cached

    def word_codes(self, position: int) -> dict[str, int]:
        """``word -> code`` of a dictionary-encoded column (cached).

        Built once per encoded column — like :meth:`values`, shared by
        every scan view of the cached encoding — so matching string keys
        against another relation's words costs one dict lookup per
        *probed* word, not a pass over this dictionary per scan.  Empty
        for a column that is not dictionary-encoded.
        """
        cached = self._word_codes[position]
        if cached is None:
            dictionary = self.columns[position].dictionary or []
            cached = self._word_codes[position] = {
                word: code for code, word in enumerate(dictionary)}
        return cached

    def value_columns(self) -> tuple[list, ...]:
        """Every column decoded, in schema order (the kernels' input)."""
        return tuple(self.values(i) for i in range(len(self.columns)))

    def row(self, position: int) -> tuple:
        """Materialize one row (mostly for tests and debugging)."""
        return tuple(self.values(i)[position]
                     for i in range(len(self.columns)))


def is_encoded(relation: Relation) -> bool:
    """Does ``relation`` already carry its columnar encoding?  True for
    a stored table (or a scan view of one) that was encoded or loaded
    from ``.cols``, and for every column-backed relation — its columns
    *are* its encoding: :func:`cached_columnar` on it is then a pure
    hit."""
    return bool(relation._columnar)


def cached_columnar(relation: Relation) -> ColumnarRelation:
    """The columnar encoding of ``relation``, cached on the relation.

    A stored relation carries at most one encoding (``_columnar``, a
    zero-or-one-element list), so repeated vectorized queries transpose
    and encode it once.  A write keeps it current instead of dropping it:
    ``Relation.extend`` (and ``insert``) replace it with
    :meth:`ColumnarRelation.appended` of the new rows, and
    ``Database.insert`` does the same on a copy it then installs, so the
    scan after a write is a hit like any other; only DDL that installs
    an unrelated relation object (``register``, ``create_table``,
    ``load_*``) starts from nothing.

    Scan views (``ScanTable``/``rename``) share the stored relation's
    cache list, so a requalified view hits the same encoding — the
    columns are qualifier-independent; only the ``schema`` on the
    returned wrapper differs, and decoded lists are shared with the
    cached instance.

    Hit/miss counts surface in the metrics registry as
    ``columnar.cache_hits`` / ``columnar.cache_misses`` — the array
    kernel encodes its base operand through here too, so a row-backed
    base (an in-memory table's first scan, a derived relation) is a miss
    like any other.
    """
    from repro.obs.metrics import get_registry

    cache = relation._columnar
    if cache:
        hit = cache[0]
        get_registry().counter("columnar.cache_hits").inc()
        if hit.schema is relation.schema:
            return hit
        return hit.with_schema(relation.schema,
                               getattr(relation, "name", None))
    get_registry().counter("columnar.cache_misses").inc()
    built = ColumnarRelation.from_relation(relation)
    cache[:] = [built]
    return built


def relation_of(schema: Schema, columns: Sequence[ColumnData], length: int,
                name: str | None = None) -> Relation:
    """``columns`` as a column-backed relation: no row list until its
    ``rows`` are first read."""
    return Relation.column_backed(
        ColumnarRelation(schema, list(columns), length, name=name),
        name=name)
