"""Array forms of the flat operators: σ, π and LIMIT over columns.

The numpy GMDJ kernel (:mod:`repro.gmdj.npkernel`) hands its output on
as a column-backed :class:`~repro.storage.relation.Relation`; the
operators around it — the translator's ``Select`` over the aggregates,
the ``Project`` back to the query's attributes, a ``LIMIT`` — consume
and produce those columns here instead of zipping them into tuples and
looping over the tuples in Python:

* ``Select`` is one :func:`~repro.algebra.npcompile.np_truth_mask` and
  one gather per column;
* ``Project`` picks bare-column items without copying, evaluates
  computed items with :func:`~repro.algebra.npcompile.np_value`, and
  deduplicates (``distinct``) by first occurrence of each row code;
* ``Limit`` slices.

(``Rename`` and ``TableValue`` need no form of their own:
:meth:`Relation.rename <repro.storage.relation.Relation.rename>` of a
column-backed relation is a column-backed view.)

The row-wise ``evaluate`` methods of :mod:`repro.algebra.operators` stay
the reference.  Contract, as for the kernels: same rows, same order,
same Python value types, same :class:`~repro.storage.iostats.IOStats`
counters — the counters are logical, so they are computed from lengths,
and only after everything that can raise has run.  Anything without an
*exact* array form raises :class:`~repro.algebra.npcompile.NpUnsupported`
(an input that carries no encoding, an object-encoded column, an
int/float comparison beyond 2**53, a string-vs-number comparison the
interpreter rejects, a NaN under DISTINCT) before touching a counter;
:func:`repro.gmdj.physical.evaluate_plan` — the one caller, and only
when its kernel is numpy — then runs the row-wise method and records the
reason on the operator's span.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from repro.algebra.analysis import is_trivially_true
from repro.algebra.expressions import Column
from repro.algebra.npcompile import (
    Columns,
    NpUnsupported,
    column_of_value,
    np_truth_mask,
    np_value,
)
from repro.algebra.operators import Limit, Project, Select
from repro.storage.catalog import Catalog
from repro.storage.columnar import (
    ColumnarRelation,
    ColumnData,
    cached_columnar,
    is_encoded,
    relation_of,
    slice_column,
    take_columns,
)
from repro.storage.iostats import IOStats
from repro.storage.relation import Relation
from repro.storage.schema import Schema

#: Running radix above which combined row codes are re-densified (they
#: then fit below the row count again, far from int64's range).
_CODE_SPACE = 2 ** 31


def _encoding(source: Relation) -> ColumnarRelation:
    """The columns ``source`` already carries (never a fresh encode: a
    row-backed intermediate is cheaper to loop over than to transpose)."""
    if not is_encoded(source):
        raise NpUnsupported("input carries no encoding")
    return cached_columnar(source)


def select_columns(op: Select, catalog: Catalog) -> Relation:
    """σ[predicate] as one truth mask over the input's columns."""
    source = op.child.evaluate(catalog)
    if is_trivially_true(op.predicate):
        return source
    columnar = _encoding(source)
    total = columnar.length
    keep = np_truth_mask(op.predicate, Columns(columnar).resolve, total)
    picked = np.flatnonzero(keep)
    columns = take_columns(columnar.columns, picked, total)
    stats = IOStats.ambient()
    stats.record_scan(total)
    stats.predicate_evals += total
    stats.tuples_output += len(picked)
    return relation_of(source.schema, columns, len(picked))


def _row_codes(column: ColumnData) -> tuple[Any, int]:
    """Dense codes of one column, equal exactly where Python compares
    the values equal (NULL equals NULL under DISTINCT), and their count."""
    if column.kind == "object":
        raise NpUnsupported("object-encoded column under DISTINCT")
    values, mask = column.data, column.valid
    if column.kind == "dict":
        # One dictionary per column, its words distinct: codes compare
        # as the strings do.
        codes, radix = values.astype(np.int64), len(column.dictionary or [])
    else:
        if column.kind == "float" and np.isnan(
                values if mask is None else values[mask]).any():
            # Python compares a NaN unequal to every value, itself included.
            raise NpUnsupported("NaN under DISTINCT")
        distinct, codes = np.unique(values, return_inverse=True)
        radix = len(distinct)
    if mask is not None:
        codes, radix = np.where(mask, codes, radix), radix + 1
    return codes, max(1, radix)


def _first_seen(columns: Sequence[ColumnData], total: int) -> Any:
    """Positions of the first occurrence of each distinct row, ascending:
    the rows ``seen``-set deduplication keeps, in the order it keeps them."""
    if not columns:  # zero attributes: every row is the empty tuple
        return np.arange(min(total, 1))
    codes, radix = _row_codes(columns[0])
    for column in columns[1:]:
        part, part_radix = _row_codes(column)
        if radix * part_radix >= _CODE_SPACE:
            distinct, codes = np.unique(codes, return_inverse=True)
            radix = max(1, len(distinct))
        codes, radix = codes * part_radix + part, radix * part_radix
    _, first = np.unique(codes, return_index=True)
    first.sort()
    return first


def project_columns(op: Project, catalog: Catalog) -> Relation:
    """π[items]: bare columns are picked as they are, computed items are
    whole-array expressions, ``distinct`` keeps first occurrences."""
    source = op.child.evaluate(catalog)
    columnar = _encoding(source)
    total = length = columnar.length
    items = op._resolved_items()
    schema = Schema(item.output_field(source.schema) for item in items)
    resolve = Columns(columnar).resolve
    columns: Sequence[ColumnData] = [
        columnar.columns[source.schema.index_of(item.expression.reference)]
        if isinstance(item.expression, Column)
        else column_of_value(np_value(item.expression, resolve), total,
                             field.dtype)
        for item, field in zip(items, schema.fields)
    ]
    if op.distinct:
        picked = _first_seen(columns, total)
        columns, length = take_columns(columns, picked, total), len(picked)
    stats = IOStats.ambient()
    stats.record_scan(total)
    stats.tuples_output += length
    return relation_of(schema, columns, length)


def limit_columns(op: Limit, catalog: Catalog) -> Relation:
    """LIMIT/OFFSET as a slice of every column."""
    source = op.child.evaluate(catalog)
    columnar = _encoding(source)
    window = slice(op.offset, op.offset + op.count)
    length = len(range(*window.indices(columnar.length)))
    columns = [slice_column(column, window)
               for column in columnar.columns]
    IOStats.ambient().tuples_output += length
    return relation_of(source.schema, columns, length)


#: Operator type → its array form, ``form(op, catalog) -> Relation`` over
#: already-materialized children (see :func:`repro.gmdj.physical.
#: evaluate_plan`).
ARRAY_FORMS: dict[type, Callable[[Any, Catalog], Relation]] = {
    Select: select_columns,
    Project: project_columns,
    Limit: limit_columns,
}
