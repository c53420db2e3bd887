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
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.storage.columnar import ColumnarRelation

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


def column_array(columnar: "ColumnarRelation", position: int,
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
