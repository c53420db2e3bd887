"""Binary columnar persistence: ``.npy`` per column plus a JSON manifest.

A table saved with :func:`save_binary` becomes a directory::

    orders.cols/
        manifest.json        # schema, row count, per-column descriptors
        c0.npy               # column 0 values (int64/float64/uint8/int32)
        c0.mask.npy          # column 0 validity mask (uint8), only
                             # when column 0 holds a NULL
        c1.npy
        ...

The column files are standard NPY version-1 arrays, so any numpy
installation reads them directly, but the format is **dependency-free**:
this module carries its own NPY v1 reader/writer (the header is a
``repr``'d dict; ``ast.literal_eval`` parses it back), and
:func:`load_binary` has one reader for both kernels — zero-copy
``memoryview`` casts over ``mmap``.  The python batch kernel decodes
those through the same ``tolist`` path it uses for in-memory ``array``
storage; the numpy kernel wraps them with ``np.frombuffer``
(:mod:`repro.storage.npcolumns`), still without moving a byte.

What is persisted is the engine's own columnar encoding
(:mod:`repro.storage.columnar`): typed buffers, out-of-band validity
masks, dictionary-encoded strings (the dictionary rides in the
manifest — OLAP dimension strings keep it tiny).  A mask file exists
only for a column that holds a NULL; the others are stored and come
back mask-free.  Object-encoded columns (mixed types, >64-bit ints)
have no array representation; their values are stored in the manifest
as JSON.

The loaded :class:`~repro.storage.relation.Relation` materializes its
row list once (``tolist`` + ``zip`` — no text parsing), and the loaded
columnar encoding *is* the relation's one cached encoding, so every
vectorized query scans the memory-mapped buffers directly instead of
re-transposing the rows.

Parquet interchange (:func:`save_parquet` / :func:`load_parquet`) is
gated behind the optional ``pyarrow`` extra and raises a clean
:class:`~repro.errors.ConfigurationError` when it is not installed; the
native format above never needs it.
"""

from __future__ import annotations

import ast
import json
import mmap
import os
import struct
import sys
from pathlib import Path
from typing import Any

from repro.errors import ConfigurationError, SchemaError
from repro.storage.columnar import (
    ColumnarRelation,
    ColumnData,
    cached_columnar,
)
from repro.storage.relation import Relation
from repro.storage.schema import Field, Schema
from repro.storage.types import DataType

#: Directory suffix marking a binary table (``<name>.cols/``).
TABLE_SUFFIX = ".cols"

_MAGIC = b"\x93NUMPY"

#: NPY descr per column kind — all little-endian on disk.
_KIND_DESCR = {"int": "<i8", "float": "<f8", "bool": "|u1", "dict": "<i4"}

#: descr → (struct/memoryview typecode, itemsize) for the pure-python path.
_DESCR_CODES = {"<i8": ("q", 8), "<f8": ("d", 8),
                "|u1": ("B", 1), "<i4": ("i", 4)}


# -- NPY v1, dependency-free ----------------------------------------------


def _write_npy(path: Path, descr: str, payload: bytes, count: int) -> None:
    """Write a 1-D NPY v1 file numpy's own ``np.load`` accepts."""
    header = (f"{{'descr': {descr!r}, 'fortran_order': False, "
              f"'shape': ({count},), }}")
    # magic(6) + version(2) + headerlen(2) + header, padded so the data
    # start is 64-byte aligned, terminated by a newline (NPY spec).
    base = len(_MAGIC) + 2 + 2
    total = base + len(header) + 1
    padding = (64 - total % 64) % 64
    text = header + " " * padding + "\n"
    with path.open("wb") as handle:
        handle.write(_MAGIC)
        handle.write(bytes((1, 0)))
        handle.write(struct.pack("<H", len(text)))
        handle.write(text.encode("latin1"))
        handle.write(payload)


def _read_npy_header(handle) -> tuple[str, int, int]:
    """Parse an NPY header; returns ``(descr, count, data_offset)``."""
    magic = handle.read(6)
    if magic != _MAGIC:
        raise SchemaError(f"{handle.name} is not an NPY file")
    major, _minor = handle.read(2)
    if major == 1:
        (header_len,) = struct.unpack("<H", handle.read(2))
        offset = 10 + header_len
    elif major == 2:
        (header_len,) = struct.unpack("<I", handle.read(4))
        offset = 12 + header_len
    else:
        raise SchemaError(f"unsupported NPY version {major} in {handle.name}")
    header = ast.literal_eval(handle.read(header_len).decode("latin1"))
    descr = header["descr"]
    if header.get("fortran_order"):
        raise SchemaError(f"{handle.name}: fortran-order arrays unsupported")
    shape = header["shape"]
    if len(shape) != 1:
        raise SchemaError(f"{handle.name}: expected a 1-D column, "
                          f"got shape {shape}")
    return descr, shape[0], offset


def _column_payload(data: Any) -> bytes:
    """The raw little-endian bytes of one column's typed storage."""
    if sys.byteorder != "little":  # pragma: no cover - big-endian only
        raise ConfigurationError(
            "save_binary writes little-endian NPY; big-endian hosts "
            "are not supported")
    return bytes(memoryview(data).cast("B"))


def _load_column_values(path: Path, descr: str, rows: int) -> memoryview:
    """One column file as a zero-copy typed ``memoryview`` over ``mmap``.

    The file must be what the manifest says it is: same ``descr``, one
    value per table row, and long enough to hold them.
    """
    code, itemsize = _DESCR_CODES[descr]
    with path.open("rb") as handle:
        file_descr, count, offset = _read_npy_header(handle)
        if file_descr != descr:
            raise SchemaError(
                f"{path}: manifest says {descr}, file says {file_descr}")
        if count != rows:
            raise SchemaError(
                f"{path}: holds {count} values for a {rows}-row table")
        end = offset + count * itemsize
        if os.fstat(handle.fileno()).st_size < end:
            raise SchemaError(
                f"{path}: truncated, {count} {descr} values need {end} bytes")
        if count == 0:
            return memoryview(b"").cast(code)
        mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    # The memoryview keeps the mmap alive; casting preserves that.
    return memoryview(mapped)[offset:end].cast(code)


# -- save -----------------------------------------------------------------


def save_binary(relation: Relation, path: str | Path) -> Path:
    """Write ``relation`` as a binary column directory (``<path>``).

    What is written is the encoding the relation carries
    (:func:`~repro.storage.columnar.cached_columnar`: built now only if
    nothing encoded it yet), so a table that was loaded, scanned or
    appended to saves the very buffers it scans.  Columns the encoder
    found NULL-free get no mask file.  Returns the directory written.
    """
    path = Path(path)
    if path.suffix != TABLE_SUFFIX:
        path = path.with_name(path.name + TABLE_SUFFIX)
    path.mkdir(parents=True, exist_ok=True)
    columnar = cached_columnar(relation)
    fields = []
    for position, (field, column) in enumerate(
            zip(relation.schema.fields, columnar.columns)):
        descriptor: dict[str, Any] = {
            "name": field.name,
            "qualifier": field.qualifier,
            "dtype": field.dtype.value,
            "kind": column.kind,
        }
        if column.kind == "object":
            # No fixed-width representation; the manifest carries the
            # values (arbitrary-precision ints survive JSON).
            descriptor["values"] = column.data
        else:
            descr = _KIND_DESCR[column.kind]
            file_name = f"c{position}.npy"
            _write_npy(path / file_name, descr,
                       _column_payload(column.data), len(column))
            descriptor["file"] = file_name
            if column.dictionary is not None:
                descriptor["dictionary"] = column.dictionary
        if column.valid is not None:
            mask_name = f"c{position}.mask.npy"
            _write_npy(path / mask_name, "|u1", bytes(column.valid),
                       len(column.valid))
            descriptor["mask"] = mask_name
        fields.append(descriptor)
    manifest = {
        "format": "repro-columnar",
        "version": 1,
        "name": relation.name or path.stem,
        "rows": len(relation),
        "fields": fields,
    }
    (path / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return path


# -- load -----------------------------------------------------------------


def _load_column(path: Path, descriptor: dict, rows: int) -> ColumnData:
    kind = descriptor["kind"]
    valid = None
    mask_name = descriptor.get("mask")
    if mask_name is not None:
        # Masks come back as real bytearrays: they are mutated by no one
        # but summed/zipped everywhere, and at one byte per row the copy
        # is immaterial next to keeping the value buffers mapped.
        valid = bytearray(_load_column_values(path / mask_name, "|u1", rows))
    if kind == "object":
        values = [None if v is None else v for v in descriptor["values"]]
        return ColumnData("object", values, valid)
    values = _load_column_values(path / descriptor["file"],
                                 _KIND_DESCR[kind], rows)
    return ColumnData(kind, values, valid,
                      descriptor.get("dictionary"))


def load_binary(path: str | Path, name: str | None = None) -> Relation:
    """Read a table written by :func:`save_binary`.

    The returned relation's rows reproduce the saved rows exactly (same
    values, same order, NULLs included).  The memory-mapped columns are
    its one columnar encoding, so vectorized evaluation scans the mapped
    buffers without re-encoding.
    """
    path = Path(path)
    manifest_path = path / "manifest.json"
    if not manifest_path.is_file():
        raise SchemaError(f"{path} has no manifest.json; "
                          f"not a binary table directory")
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("format") != "repro-columnar":
        raise SchemaError(f"{manifest_path}: unrecognized format "
                          f"{manifest.get('format')!r}")
    if manifest.get("version") != 1:
        raise SchemaError(f"{manifest_path}: unsupported version "
                          f"{manifest.get('version')!r}")
    rows = manifest["rows"]
    schema = Schema(
        Field(descriptor["name"], DataType(descriptor["dtype"]),
              descriptor["qualifier"])
        for descriptor in manifest["fields"]
    )
    columns = [_load_column(path, descriptor, rows)
               for descriptor in manifest["fields"]]
    table_name = name or manifest.get("name") or table_stem(path)
    columnar = ColumnarRelation(schema, columns, rows, name=table_name)
    relation = columnar.to_relation()
    relation._columnar.append(columnar)
    return relation


def table_stem(path: Path) -> str:
    """Table name from a directory path, dropping the ``.cols`` suffix."""
    return path.name[:-len(TABLE_SUFFIX)] \
        if path.name.endswith(TABLE_SUFFIX) else path.name


# -- catalog-level helpers ------------------------------------------------


def save_catalog_binary(catalog, directory: str | Path) -> list[Path]:
    """Write every table of a catalog as ``<directory>/<table>.cols/``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    return [save_binary(catalog.table(table_name),
                        directory / f"{table_name}{TABLE_SUFFIX}")
            for table_name in catalog.table_names()]


def binary_tables(directory: str | Path) -> list[Path]:
    """The binary table directories under ``directory``, sorted by name."""
    directory = Path(directory)
    return sorted(
        (entry for entry in directory.glob(f"*{TABLE_SUFFIX}")
         if entry.is_dir() and (entry / "manifest.json").is_file()),
        key=lambda entry: entry.name,
    )


def load_catalog_binary(directory: str | Path):
    """Build a catalog from every ``*.cols/`` table in a directory."""
    from repro.storage.catalog import Catalog

    catalog = Catalog()
    for table_dir in binary_tables(directory):
        catalog.create_table(table_stem(table_dir), load_binary(table_dir))
    return catalog


# -- optional parquet interchange (pyarrow extra) -------------------------


def _require_pyarrow() -> Any:
    try:  # pragma: no cover - depends on environment
        import pyarrow
        import pyarrow.parquet  # noqa: F401
    except ImportError:
        raise ConfigurationError(
            "parquet interchange requires the optional pyarrow extra; "
            "install it with: pip install repro[parquet] "
            "(the native .cols binary format needs no dependencies)"
        ) from None
    return pyarrow  # pragma: no cover


_ARROW_TYPES = {
    DataType.INTEGER: "int64",
    DataType.FLOAT: "float64",
    DataType.BOOLEAN: "bool_",
    DataType.STRING: "string",
}


def save_parquet(relation: Relation, path: str | Path) -> Path:
    """Write ``relation`` as a Parquet file (requires pyarrow)."""
    pa = _require_pyarrow()
    import pyarrow.parquet as pq  # pragma: no cover

    path = Path(path)  # pragma: no cover
    arrays = [  # pragma: no cover
        pa.array(relation.column(field.full_name),
                 type=getattr(pa, _ARROW_TYPES[field.dtype])())
        for field in relation.schema.fields
    ]
    table = pa.table(arrays,  # pragma: no cover
                     names=[field.full_name
                            for field in relation.schema.fields])
    pq.write_table(table, path)  # pragma: no cover
    return path  # pragma: no cover


def load_parquet(path: str | Path, schema: Schema,
                 name: str | None = None) -> Relation:
    """Read a Parquet file into ``schema`` (requires pyarrow)."""
    _require_pyarrow()
    import pyarrow.parquet as pq  # pragma: no cover

    table = pq.read_table(Path(path))  # pragma: no cover
    rows = zip(*(column.to_pylist()  # pragma: no cover
                 for column in table.columns))
    return Relation(schema, rows, name=name)  # pragma: no cover
