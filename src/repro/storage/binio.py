"""Binary columnar persistence: ``.npy`` per column plus a JSON manifest.

A table saved with :func:`save_binary` becomes a directory::

    orders.cols/
        manifest.json        # schema, row count, per-column descriptors
        c0.npy               # column 0 values (int64/float64/uint8/int32)
        c0.mask.npy          # column 0 validity mask (uint8), only
                             # when column 0 holds a NULL
        c1.npy
        ...

The column files are standard NPY version-1 arrays, written and parsed
by numpy's own ``numpy.lib.format``; :func:`load_binary` memory-maps
each value file and views it with ``np.frombuffer`` — no byte is moved,
and a slice of a mapped column is a plain ndarray like any other.

What is persisted is the engine's own columnar encoding
(:mod:`repro.storage.columnar`): value arrays, out-of-band validity
masks, dictionary-encoded strings (the dictionary rides in the
manifest — OLAP dimension strings keep it tiny).  A mask file exists
only for a column that holds a NULL; the others are stored and come
back mask-free.  Object-encoded columns (mixed types, >64-bit ints)
have no array representation; their values are stored in the manifest
as JSON.

Loading trusts nothing it reads: a file that is not NPY, a version,
``descr``, row count or length the manifest does not promise, a
``kind`` its field's type cannot take, a mask or bool byte other than
0/1 and a dictionary code outside the dictionary all raise
:class:`~repro.errors.SchemaError` — one vectorized pass per column —
so corrupt data never loads as wrong rows.

The loaded :class:`~repro.storage.relation.Relation` materializes its
row list once (``tolist`` + ``zip`` — no text parsing), and the loaded
columnar encoding *is* the relation's one cached encoding, so every
vectorized query scans the memory-mapped arrays directly instead of
re-transposing the rows.
"""

from __future__ import annotations

import json
import mmap
import os
from pathlib import Path
from typing import Any

import numpy as np
from numpy.lib import format as npy

from repro.errors import SchemaError
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

#: NPY descr per column kind — all little-endian on disk.
_KIND_DESCR = {"int": "<i8", "float": "<f8", "bool": "|u1", "dict": "<i4"}

#: The field type each typed kind encodes (an object column may hold any).
_KIND_DTYPE = {"int": DataType.INTEGER, "float": DataType.FLOAT,
               "bool": DataType.BOOLEAN, "dict": DataType.STRING}

_HEADER_READERS = {1: npy.read_array_header_1_0,
                   2: npy.read_array_header_2_0}


def _load_array(path: Path, descr: str, rows: int) -> Any:
    """One column file as an ndarray over its ``mmap``, zero-copy.

    The file must be what the manifest says it is: same ``descr``, one
    value per table row, and long enough to hold them.
    """
    with path.open("rb") as handle:
        try:
            major, _minor = npy.read_magic(handle)
        except ValueError:
            raise SchemaError(f"{path} is not an NPY file") from None
        read_header = _HEADER_READERS.get(major)
        if read_header is None:
            raise SchemaError(f"unsupported NPY version {major} in {path}")
        try:
            shape, fortran_order, dtype = read_header(handle)
        except ValueError as error:
            raise SchemaError(f"{path}: bad NPY header ({error})") from None
        offset = handle.tell()
        if dtype.str != descr:
            raise SchemaError(
                f"{path}: manifest says {descr}, file says {dtype.str}")
        if fortran_order or len(shape) != 1:
            raise SchemaError(f"{path}: expected a 1-D column, "
                              f"got shape {shape}")
        if shape[0] != rows:
            raise SchemaError(
                f"{path}: holds {shape[0]} values for a {rows}-row table")
        end = offset + rows * dtype.itemsize
        if os.fstat(handle.fileno()).st_size < end:
            raise SchemaError(
                f"{path}: truncated, {rows} {descr} values need {end} bytes")
        if rows == 0:
            return np.empty(0, dtype=dtype)
        mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    # The array keeps the mmap alive.
    return np.frombuffer(mapped, dtype=dtype, count=rows, offset=offset)


def _load_flags(path: Path, rows: int) -> Any:
    """A ``|u1`` file of 0/1 bytes (a mask or bool column) as bools."""
    flags = _load_array(path, "|u1", rows)
    if flags.max(initial=0) > 1:
        raise SchemaError(f"{path}: a flag byte is neither 0 nor 1")
    return flags.view(np.bool_)


# -- save -----------------------------------------------------------------


def save_binary(relation: Relation, path: str | Path) -> Path:
    """Write ``relation`` as a binary column directory (``<path>``).

    What is written is the encoding the relation carries
    (:func:`~repro.storage.columnar.cached_columnar`: built now only if
    nothing encoded it yet), so a table that was loaded, scanned or
    appended to saves the very arrays it scans.  Columns the encoder
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
            file_name = f"c{position}.npy"
            np.save(path / file_name,
                    column.data.astype(_KIND_DESCR[column.kind], copy=False))
            descriptor["file"] = file_name
            if column.dictionary is not None:
                descriptor["dictionary"] = column.dictionary
        if column.valid is not None:
            mask_name = f"c{position}.mask.npy"
            np.save(path / mask_name, column.valid.astype("|u1"))
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


def _load_column(path: Path, descriptor: dict, dtype: DataType,
                 rows: int) -> ColumnData:
    kind = descriptor["kind"]
    if kind != "object" and _KIND_DTYPE.get(kind) is not dtype:
        raise SchemaError(f"{path}: column {descriptor['name']!r} of type "
                          f"{dtype.value} cannot be kind {kind!r}")
    mask_name = descriptor.get("mask")
    valid = None if mask_name is None else _load_flags(path / mask_name, rows)
    if kind == "object":
        return ColumnData("object", list(descriptor["values"]), valid)
    if kind == "bool":
        return ColumnData(kind, _load_flags(path / descriptor["file"], rows),
                          valid)
    values = _load_array(path / descriptor["file"], _KIND_DESCR[kind], rows)
    dictionary = descriptor.get("dictionary")
    if kind == "dict":
        codes = values if valid is None else values[valid]
        if len(codes) and (codes.min() < 0
                           or codes.max() >= len(dictionary or ())):
            raise SchemaError(
                f"{path}: column {descriptor['name']!r} holds a code "
                f"outside its {len(dictionary or ())}-word dictionary")
    return ColumnData(kind, values, valid, dictionary)


def load_binary(path: str | Path, name: str | None = None) -> Relation:
    """Read a table written by :func:`save_binary`.

    The returned relation's rows reproduce the saved rows exactly (same
    values, same order, NULLs included).  The memory-mapped columns are
    its one columnar encoding, so vectorized evaluation scans the mapped
    arrays without re-encoding.
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
    columns = [_load_column(path, descriptor, field.dtype, rows)
               for descriptor, field in zip(manifest["fields"],
                                            schema.fields)]
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

