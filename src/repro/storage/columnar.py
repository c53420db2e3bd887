"""Column-major relation storage for batch execution.

A :class:`ColumnarRelation` holds the same bag of tuples as a
:class:`~repro.storage.relation.Relation`, transposed into per-attribute
columns with compact typed storage:

* ``INTEGER`` → ``array('q')`` (falls back to a plain object list when a
  Python int overflows 64 bits — SQL semantics keep arbitrary precision);
* ``FLOAT``   → ``array('d')``;
* ``BOOLEAN`` → a ``bytearray`` of 0/1;
* ``STRING``  → dictionary encoding: an ``array('i')`` of codes plus the
  list of distinct values (OLAP detail tables repeat their dimension
  strings heavily, so the dictionary is tiny relative to the column).

NULLs are carried out-of-band in a per-column validity ``bytearray``
(1 = present), so the typed arrays never need an in-band sentinel.  The
conversion is lossless in both directions: ``to_relation`` reproduces the
original rows exactly, duplicates and NULLs included, in the same order.

Whether a column needs a mask is this module's decision alone: the
encoder reads every value anyway, so a typed column in which it saw no
NULL comes out with ``valid=None`` ("all present") — no mask is
allocated and the kernels skip every mask operation on it.  There is
one encoder and one encoding per stored relation
(:func:`cached_columnar`); nothing upstream tells storage which columns
are NULL-free.

An encoding is a value: nothing writes to one after it is built.  A
write to the table makes the next one — :meth:`ColumnarRelation.appended`
copies each typed buffer once and concatenates the encoder's output for
the new rows, so an insert costs a memcpy per column, not a
re-transposition of every row, and a reader that already resolved the
old encoding keeps scanning exactly the arrays it had.

The batch GMDJ kernels (:mod:`repro.gmdj.vectorized`) do not read the
typed arrays element-wise in their hot loops — they ask for
:meth:`ColumnarRelation.values`, a decoded plain list with ``None`` for
NULL, computed once per column and cached.  That keeps the per-element
access a single list index while the relation itself stays compact.
"""

from __future__ import annotations

from array import array
from typing import Any, Sequence

from repro.storage.relation import Relation
from repro.storage.schema import Schema
from repro.storage.types import DataType

_INT64_MIN = -(2 ** 63)
_INT64_MAX = 2 ** 63 - 1

#: bytearray booleans decode through this table so ``to_relation``
#: restores real ``bool`` objects, not 0/1 ints.
_BOOLS = (False, True)


def _plain_list(data: Any) -> list:
    """Typed storage as a list of plain Python values.

    ``array`` and ndarray expose ``tolist`` (which converts numpy
    scalars to Python ints/floats/bools); ``bytearray`` iterates to
    ints directly.
    """
    tolist = getattr(data, "tolist", None)
    if tolist is not None:
        return tolist()
    return list(data)


class ColumnData:
    """One attribute's values: typed storage plus a validity mask.

    ``valid=None`` means "every value present": the encoder saw no
    NULL, so the mask would be all ones and is not materialized.
    """

    __slots__ = ("kind", "data", "valid", "dictionary")

    def __init__(self, kind: str, data: Any, valid: bytearray | None,
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
        return len(self.valid) - sum(self.valid)

    def decode(self) -> list:
        """The column as a plain list with ``None`` for NULL.

        Storage may be an ``array``/``bytearray`` (the encoder's output),
        a memory-mapped buffer (binary persistence) or an ndarray (a
        column the array kernel or an array-form operator produced);
        ``tolist`` normalizes them all to plain Python values so decoded
        rows are byte-for-byte the same regardless of where the column
        came from.
        """
        valid = self.valid
        if valid is not None and hasattr(valid, "tolist"):
            valid = valid.tolist()  # an ndarray mask: plain bools
        if self.kind == "dict":
            dictionary = self.dictionary or []
            codes = _plain_list(self.data)
            if valid is None:
                return [dictionary[code] for code in codes]
            return [dictionary[code] if ok else None
                    for code, ok in zip(codes, valid)]
        if self.kind == "bool":
            flags = _plain_list(self.data)
            if valid is None:
                return [_BOOLS[value] for value in flags]
            return [_BOOLS[value] if ok else None
                    for value, ok in zip(flags, valid)]
        if self.kind == "object":
            return list(self.data)
        values = _plain_list(self.data)
        if valid is None:
            return values
        return [value if ok else None
                for value, ok in zip(values, valid)]


def _object_column(values: list) -> ColumnData:
    return ColumnData("object", list(values), bytearray(
        0 if v is None else 1 for v in values))


def _mask(valid: bytearray) -> bytearray | None:
    """``valid`` if it marks a NULL, else None (no mask needed)."""
    return valid if 0 in valid else None


#: ``array`` typecode of each typed kind's buffer (booleans are a
#: ``bytearray``).
_TYPECODES = {"int": "q", "float": "d", "dict": "i"}


def _raw(data: Any) -> memoryview:
    """The bytes of typed storage — an ``array``, a ``bytearray``, a
    read-only mapped buffer or an ndarray — viewed in place."""
    return memoryview(data).cast("B")


def _grown(kind: str, data: Any, extra: Any) -> Any:
    """A fresh ``array`` / ``bytearray`` holding ``data`` followed by
    ``extra`` (the encoder's storage of the same kind): one copy of the
    old buffer, which is read and never written."""
    if kind == "bool":
        out = bytearray(_raw(data))
    else:
        out = array(_TYPECODES[kind])
        out.frombytes(_raw(data))
    out.extend(extra)
    return out


def _grown_mask(column: ColumnData, delta: ColumnData) -> bytearray | None:
    """The validity mask of ``column`` followed by ``delta``: still None
    while neither holds a NULL, materialized the moment one arrives."""
    if column.valid is None and delta.valid is None:
        return None
    mask = (bytearray(b"\x01") * len(column) if column.valid is None
            else bytearray(_raw(column.valid)))
    mask.extend(b"\x01" * len(delta) if delta.valid is None
                else delta.valid)
    return mask


def _encode_column(values: list, dtype: DataType) -> ColumnData:
    """Build typed storage for one column.

    Intermediate relations are constructed with ``validate=False``, so a
    column's *declared* dtype is not a guarantee about the Python types
    actually present (an INTEGER-typed intermediate may carry floats and
    vice versa).  Every value is therefore type-checked during encoding;
    any mismatch falls back to an object column — the round trip must be
    lossless for whatever bag of values the relation really holds.

    The validity mask starts all-present and each NULL clears its byte;
    a typed column that cleared none returns ``valid=None``.
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
        return ColumnData("int", data, _mask(valid))
    if dtype is DataType.FLOAT:
        data = array("d", bytes(8 * n))
        for position, value in enumerate(values):
            if value is None:
                valid[position] = 0
                continue
            if type(value) is not float:
                return _object_column(values)
            data[position] = value
        return ColumnData("float", data, _mask(valid))
    if dtype is DataType.BOOLEAN:
        flags = bytearray(n)
        for position, value in enumerate(values):
            if value is None:
                valid[position] = 0
                continue
            if type(value) is not bool:
                return _object_column(values)
            flags[position] = 1 if value else 0
        return ColumnData("bool", flags, _mask(valid))
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
        return ColumnData("dict", codes, _mask(valid), dictionary)
    return _object_column(values)


class ColumnarRelation:
    """A relation transposed into typed columns (see module docstring)."""

    __slots__ = ("schema", "name", "length", "columns", "_decoded",
                 "_np_columns", "_word_codes", "_join_indexes")

    def __init__(self, schema: Schema, columns: list[ColumnData],
                 length: int, name: str | None = None) -> None:
        self.schema = schema
        self.columns = columns
        self.length = length
        self.name = name
        self._decoded: list[list | None] = [None] * len(columns)
        # Lazily-built ndarray views (repro.storage.npcolumns); ``False``
        # marks "not built yet" so a built-but-unsupported column can
        # cache its ``None``.
        self._np_columns: list[Any] = [False] * len(columns)
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
            _encode_column(list(raw), field.dtype)
            for raw, field in zip(raw_columns, schema.fields)
        ]
        return cls(schema, columns, n,
                   name=getattr(relation, "name", None))

    def appended(self, rows: Sequence[tuple]) -> "ColumnarRelation":
        """This encoding followed by ``rows``, as a *new* encoding.

        Column by column the result equals ``from_relation`` over all
        the rows — kind, buffer bytes, mask, dictionary order — without
        reading the old ones again: each typed buffer is copied once and
        the encoder's output for ``rows`` concatenated.  The encoder's
        contracts carry over: a NULL arriving in a mask-free column
        materializes the mask then; a new string extends a *copy* of the
        dictionary, in first-seen order; a value the typed buffer cannot
        hold (a >64-bit int, a mistyped value) re-encodes that one
        column, and only that one, from its values
        (``columnar.append_reencodes``, column and reason on the span).
        ``self`` — its buffers, masks and dictionaries, mapped or not —
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
                delta = _encode_column(values, field.dtype)
                codes = None
                if delta.kind != column.kind or column.kind == "object":
                    # No buffer to extend: encode the column's values
                    # afresh (an object column stays one).
                    if column.kind != "object":
                        reencoded.append(
                            f"{field.full_name}: {column.kind} buffer "
                            f"cannot hold the new rows "
                            f"(they encode as {delta.kind})")
                    grown = _encode_column(column.decode() + values,
                                           field.dtype)
                elif column.kind == "dict":
                    codes = self.word_codes(position)
                    dictionary = column.dictionary or []
                    fresh = [word for word in delta.dictionary
                             if word not in codes]
                    if fresh:
                        codes = dict(codes)
                        for word in fresh:
                            codes[word] = len(codes)
                        dictionary = dictionary + fresh
                    remap = [codes[word] for word in delta.dictionary]
                    if delta.valid is None:
                        extra = [remap[code] for code in delta.data]
                    else:  # a NULL slot keeps the encoder's 0
                        extra = [remap[code] if ok else 0 for code, ok
                                 in zip(delta.data, delta.valid)]
                    grown = ColumnData(
                        "dict", _grown("dict", column.data, extra),
                        _grown_mask(column, delta), dictionary)
                else:
                    grown = ColumnData(
                        column.kind,
                        _grown(column.kind, column.data, delta.data),
                        _grown_mask(column, delta))
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
        """The same columns under ``schema`` (a requalified view): typed
        storage, decoded lists, ndarray views, dictionary inverses and
        join indexes are all shared with this instance."""
        clone = ColumnarRelation(schema, self.columns, self.length, name=name)
        clone._decoded = self._decoded
        clone._np_columns = self._np_columns
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
    typed columns are qualifier-independent; only the ``schema`` on the
    returned wrapper differs, and decoded lists plus ndarray views are
    shared with the cached instance.

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
