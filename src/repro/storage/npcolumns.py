"""NumPy views over columnar storage (optional dependency gate).

This module is the single place the engine asks two questions:

* *Is numpy available?* — :data:`HAVE_NUMPY` / :func:`require_numpy`.
  Everything else in the numpy backend imports ``numpy`` through here,
  so a missing install degrades to one clean
  :class:`~repro.errors.ConfigurationError` instead of scattered
  ``ImportError`` noise.  The python batch kernel never touches this
  module; the package stays dependency-free by default.
* *What does this column look like as an ndarray?* —
  :func:`column_array`, which exposes a
  :class:`~repro.storage.columnar.ColumnData` as a **zero-copy**
  ``np.frombuffer`` view plus a boolean validity mask.  ``array('q')``,
  ``array('d')``, ``array('i')`` and ``bytearray`` all implement the
  buffer protocol — as do the ``mmap``-backed ``memoryview`` columns of
  a table loaded by :func:`repro.storage.binio.load_binary` — so no
  bytes are moved: the numpy kernel reads the exact storage the python
  kernel decodes.

Views are cached per :class:`~repro.storage.columnar.ColumnarRelation`
(one tuple per column position), so repeated vectorized queries against
a cached encoding (see :func:`repro.storage.columnar.cached_columnar`)
also reuse the ndarray wrappers.

A column in which the encoder saw no NULL has ``valid=None``; its view
carries ``mask=None`` ("nothing is null") and the whole-array kernels
skip every mask operation on it.  Object columns (mixed/overflowed
values) have no array representation and yield ``None``, which the
kernel treats as a per-operator fallback to the python path.

The other direction — *columns an array operator produced, as a
relation* — is :func:`columnar_of`: a
:class:`~repro.storage.columnar.ColumnarRelation` whose typed storage is
the ndarrays themselves (so :func:`column_array` on it hands them back),
wrapped as a column-backed relation by :func:`relation_of`, with
:func:`take_columns` / :func:`slice_column` as the two ways an operator
restricts columns to some of their rows.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.errors import ConfigurationError
from repro.storage.columnar import (
    ColumnarRelation,
    ColumnData,
    _encode_column,
    _object_column,
)
from repro.storage.relation import Relation
from repro.storage.schema import Schema
from repro.storage.types import DataType

try:  # pragma: no cover - exercised via both CI legs
    import numpy
except ImportError:  # pragma: no cover
    numpy = None  # type: ignore[assignment]

#: True when the optional numpy extra is importable.
HAVE_NUMPY = numpy is not None


def require_numpy() -> Any:
    """Return the numpy module or raise a clean configuration error."""
    if numpy is None:
        raise ConfigurationError(
            "backend 'numpy' requires the optional numpy extra; "
            "install it with: pip install repro[numpy]"
        )
    return numpy


class NpColumn:
    """One column as ndarrays: values, validity, optional dictionary.

    ``values`` is the typed buffer viewed in place (int64 / float64 /
    bool flags / int32 dictionary codes).  ``mask`` is ``None`` when the
    column is mask-free (it holds no NULL), else a bool ndarray with
    True = present.  ``dictionary`` carries the decoded string table for
    ``kind == "dict"`` columns.
    """

    __slots__ = ("kind", "values", "mask", "dictionary")

    def __init__(self, kind: str, values: Any, mask: Any,
                 dictionary: list | None) -> None:
        self.kind = kind  # "int" | "float" | "bool" | "dict"
        self.values = values
        self.mask = mask
        self.dictionary = dictionary


_KIND_DTYPES = {"int": "int64", "float": "float64"}


def _build_column(column: Any) -> NpColumn | None:
    """Zero-copy ndarray view of one ColumnData (None for object cols)."""
    np = numpy
    kind = column.kind
    if kind == "object":
        return None
    if kind in _KIND_DTYPES:
        values = np.frombuffer(column.data, dtype=_KIND_DTYPES[kind]) \
            if len(column.data) else np.empty(0, dtype=_KIND_DTYPES[kind])
    elif kind == "bool":
        values = (np.frombuffer(column.data, dtype=np.uint8)
                  if len(column.data) else np.empty(0, dtype=np.uint8)
                  ).view(np.bool_)
    elif kind == "dict":
        values = np.frombuffer(column.data, dtype=np.int32) \
            if len(column.data) else np.empty(0, dtype=np.int32)
    else:  # pragma: no cover - exhaustive over ColumnData kinds
        return None
    if column.valid is None:
        mask = None
    else:
        mask = (np.frombuffer(column.valid, dtype=np.uint8)
                if len(column.valid) else np.empty(0, dtype=np.uint8)
                ).view(np.bool_)
    return NpColumn(kind, values, mask, column.dictionary)


def column_array(columnar: ColumnarRelation, position: int,
                 ) -> NpColumn | None:
    """The ndarray view of column ``position``, cached on the relation.

    Returns ``None`` for object-encoded columns — the caller falls back
    to the python kernel for expressions touching them.
    """
    require_numpy()
    cache = columnar._np_columns
    entry = cache[position]
    if entry is False:
        entry = cache[position] = _build_column(columnar.columns[position])
    return entry


#: One column of an array operator's output: its array form, or the
#: object-encoded storage of a column that has none.
OutputColumn = NpColumn | ColumnData


def output_column(columnar: ColumnarRelation, position: int) -> OutputColumn:
    """Column ``position`` in the form array operators pass along."""
    column = column_array(columnar, position)
    return columnar.columns[position] if column is None else column


def output_columns(columnar: ColumnarRelation) -> list[OutputColumn]:
    """Every column of ``columnar``, in schema order."""
    return [output_column(columnar, position)
            for position in range(len(columnar.columns))]


def _storage(column: OutputColumn) -> ColumnData:
    """``column`` as typed storage (an NpColumn's arrays are adopted)."""
    if isinstance(column, ColumnData):
        return column
    return ColumnData(column.kind, column.values, column.mask,
                      column.dictionary)


def encoded_column(values: list, dtype: DataType) -> OutputColumn:
    """A list of Python values (None = NULL) as a column, through the
    storage encoder: every value is type-checked, and a list the
    declared ``dtype`` does not describe comes out object-encoded."""
    data = _encode_column(values, dtype)
    return data if data.kind == "object" else _build_column(data)


def decoded_column(column: OutputColumn) -> list:
    """``column`` as a list of plain Python values (None = NULL)."""
    return _storage(column).decode()


def take_column(column: OutputColumn, picked: Any) -> OutputColumn:
    """``column`` restricted to the row positions ``picked`` (an int
    ndarray), in that order."""
    if isinstance(column, ColumnData):
        # An object column (an array form never holds another kind).
        values = column.data
        return _object_column([values[i] for i in picked.tolist()])
    return NpColumn(column.kind, column.values.take(picked),
                    None if column.mask is None else column.mask.take(picked),
                    column.dictionary)


def take_columns(columns: Sequence[OutputColumn], picked: Any,
                 length: int) -> Sequence[OutputColumn]:
    """``columns`` (of ``length`` rows) restricted to the ascending row
    positions ``picked`` — themselves, untouched, when every row is."""
    if len(picked) == length:
        return columns
    return [take_column(column, picked) for column in columns]


def slice_column(column: OutputColumn, window: slice) -> OutputColumn:
    """``column`` restricted to a contiguous row range (views, no copy)."""
    if isinstance(column, ColumnData):
        return _object_column(column.data[window])
    return NpColumn(column.kind, column.values[window],
                    None if column.mask is None else column.mask[window],
                    column.dictionary)


def columnar_of(schema: Schema, columns: Sequence[OutputColumn], length: int,
                name: str | None = None) -> ColumnarRelation:
    """The columnar relation whose storage is ``columns`` themselves.

    An :class:`NpColumn`'s arrays become the typed storage (validity is
    its bool mask) and its own ndarray view, so nothing is re-encoded
    when the next array operator asks for it; decoding to Python values
    goes through :meth:`ColumnData.decode` like any stored column.
    """
    out = ColumnarRelation(schema, [_storage(column) for column in columns],
                           length, name=name)
    out._np_columns = [None if isinstance(column, ColumnData) else column
                       for column in columns]
    return out


def relation_of(schema: Schema, columns: Sequence[OutputColumn], length: int,
                name: str | None = None) -> Relation:
    """``columns`` as a column-backed relation: no row list until its
    ``rows`` are first read."""
    return Relation.column_backed(columnar_of(schema, columns, length, name),
                                  name=name)
