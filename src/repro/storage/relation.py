"""Relations: ordered multisets of typed tuples.

A :class:`Relation` couples a :class:`~repro.storage.schema.Schema` with a
list of rows (plain Python tuples).  SQL bag semantics apply throughout —
duplicates are preserved and ``distinct()`` is explicit.  SQL NULL is the
Python value ``None``.

A relation may also be **column-backed**
(:meth:`Relation.column_backed`): it holds a
:class:`~repro.storage.columnar.ColumnarRelation` and no row list yet.
The array kernel and the array forms of the flat operators hand such
relations to each other without ever building a tuple; the first read of
``rows`` transposes the columns once, and from then on the relation is
an ordinary row-backed one that also carries its encoding.

Scanning a relation through :meth:`Relation.scan` reports page and tuple
counts into the ambient :class:`~repro.storage.iostats.IOStats`; iteration
via ``__iter__`` is free and intended for cheap in-memory inspection (tests,
pretty-printing).
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.errors import SchemaError
from repro.storage.iostats import IOStats
from repro.storage.schema import Field, Schema
from repro.storage.types import DataType

Row = tuple


class Relation:
    """A typed, ordered multiset of tuples."""

    __slots__ = ("schema", "_rows", "name", "_columnar")

    def __init__(
        self,
        schema: Schema,
        rows: Iterable[Sequence[Any]] = (),
        name: str | None = None,
        validate: bool = True,
    ):
        self.schema = schema
        self.name = name
        # The row list; None while a column-backed relation has not been
        # read row-wise yet (see the ``rows`` property).
        self._rows: list[Row] | None
        if validate:
            self._rows = [self._check_row(row) for row in rows]
        elif type(rows) is list:
            # ``validate=False`` vouches for the rows: a list (of tuples)
            # is adopted as it stands — a producer hands over the list it
            # built, a scan view shares the stored one — not re-listed.
            self._rows = rows
        else:
            self._rows = [tuple(row) for row in rows]
        # Columnar-encoding cache (repro.storage.columnar.cached_columnar):
        # empty, or the one encoding.  Scan views share this list so
        # repeated vectorized queries hit one encoding; ``extend``
        # replaces it with the encoding of the grown relation.
        self._columnar: list = []

    @classmethod
    def column_backed(cls, columnar: Any,
                      name: str | None = None) -> "Relation":
        """A relation over ``columnar`` (a
        :class:`~repro.storage.columnar.ColumnarRelation`) with no row
        list: ``columnar`` is its encoding, and ``rows`` is transposed
        from it on first read."""
        out = cls.__new__(cls)
        out.schema = columnar.schema
        out.name = name
        out._rows = None
        out._columnar = [columnar]
        return out

    @property
    def rows(self) -> list[Row]:
        """The row list.  A column-backed relation transposes its
        columns on the first read and keeps the list from then on."""
        rows = self._rows
        if rows is None:
            rows = self._rows = self._columnar[0].to_rows()
        return rows

    def shares_rows(self, other: "Relation") -> bool:
        """Whether this relation holds ``other``'s very row list (a scan
        view does); ``other``'s columns are not transposed to tell."""
        return self._rows is not None and self._rows is other._rows

    def __getstate__(self) -> tuple:
        # Worker-pool pickling: ship data, not the encoding cache.
        return (self.schema, self.rows, self.name)

    def __setstate__(self, state: tuple) -> None:
        self.schema, self._rows, self.name = state
        self._columnar = []

    def _check_row(self, row: Sequence[Any]) -> Row:
        if len(row) != len(self.schema):
            raise SchemaError(
                f"row arity {len(row)} does not match schema arity "
                f"{len(self.schema)}: {row!r}"
            )
        return tuple(
            field.dtype.validate(value)
            for field, value in zip(self.schema.fields, row)
        )

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def from_columns(
        pairs: Sequence[tuple[str, DataType]],
        rows: Iterable[Sequence[Any]] = (),
        name: str | None = None,
        qualifier: str | None = None,
    ) -> "Relation":
        """Build a relation from ``(name, dtype)`` pairs and row data."""
        schema = Schema(Field(n, t, qualifier) for n, t in pairs)
        return Relation(schema, rows, name=name)

    def copy(self) -> "Relation":
        """An independent snapshot: same schema/name, fresh row list.

        Rows are immutable tuples, so a shallow list copy is a full
        defensive copy — mutating the copy's ``rows`` cannot affect the
        original (the cache layers rely on this both when storing and
        when serving).  A relation that holds only columns is copied as
        one: the arrays are immutable and shared, and each copy
        transposes its own row list if it is ever read row-wise.
        """
        if self._rows is None:
            return Relation.column_backed(self._columnar[0], name=self.name)
        return Relation(self.schema, list(self._rows), name=self.name,
                        validate=False)

    def extend(self, rows: Iterable[Sequence[Any]]) -> None:
        """Append ``rows`` — the one mutation.

        Every row is validated and the grown encoding computed before
        anything changes, so a bad row — or a buffer ``appended`` cannot
        copy — leaves the relation as it was, row list and encoding
        still the same length.  Whatever form the relation holds grows:
        the row list in place, the columnar encoding by being *replaced*
        with ``appended(delta)`` (one buffer copy per column; see
        :meth:`~repro.storage.columnar.ColumnarRelation.appended`), so
        the next scan reads current arrays without re-encoding and
        whoever resolved the old encoding keeps it intact.
        """
        delta = [self._check_row(row) for row in rows]
        grown = self._columnar[0].appended(delta) if self._columnar else None
        if self._rows is not None:
            self._rows.extend(delta)
        if grown is not None:
            self._columnar[0] = grown

    def insert(self, row: Sequence[Any]) -> None:
        self.extend([row])

    def extended(self, rows: Iterable[Sequence[Any]]) -> "Relation":
        """Copy-on-write :meth:`extend`: a new relation holding this
        one's rows followed by ``rows``.  This relation — row list and
        encoding — is untouched; the new one starts from the same
        encoding (a value nobody writes) and ``extend`` gives it its
        own, so a table that was encoded stays encoded across a write.
        """
        out = self.copy()
        out._columnar = list(self._columnar)
        out.extend(rows)
        return out

    # -- basic properties ----------------------------------------------------

    def __len__(self) -> int:
        rows = self._rows
        return len(rows) if rows is not None else self._columnar[0].length

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __repr__(self) -> str:
        label = self.name or "relation"
        return f"<Relation {label} {len(self.schema)} cols x {len(self)} rows>"

    def arity(self) -> int:
        return len(self.schema)

    # -- accounted access ----------------------------------------------------

    def scan(self) -> Iterator[Row]:
        """Iterate all rows, charging a full relation scan to IOStats."""
        IOStats.ambient().record_scan(len(self.rows))
        return iter(self.rows)

    # -- bag comparisons -----------------------------------------------------

    def as_multiset(self) -> Counter:
        """Rows as a Counter, for order-insensitive bag comparison."""
        return Counter(self.rows)

    def bag_equal(self, other: "Relation") -> bool:
        """True when both relations hold the same multiset of rows.

        Schemas are compared by attribute *names only* (qualifiers and
        declared types may legitimately differ between two plans computing
        the same query).
        """
        if len(self.schema) != len(other.schema):
            return False
        return self.as_multiset() == other.as_multiset()

    # -- convenience transforms (used by tests and examples) ------------------

    def rename(self, qualifier: str) -> "Relation":
        """A view of this relation with every field re-qualified: it
        shares the row list (and the encoding cache), so it sees later
        inserts; :meth:`copy` is the snapshot.  (A view of a relation
        that holds only columns shares those and no list: it is a
        snapshot.)"""
        schema = self.schema.rename(qualifier)
        if self._rows is None:
            encoding = self._columnar[0]
            return Relation.column_backed(
                encoding.with_schema(schema, self.name), name=self.name)
        out = Relation(schema, self._rows, name=self.name, validate=False)
        out._columnar = self._columnar  # views share the encoding cache
        return out

    def distinct(self) -> "Relation":
        seen: set[Row] = set()
        out: list[Row] = []
        for row in self.rows:
            if row not in seen:
                seen.add(row)
                out.append(row)
        return Relation(self.schema, out, name=self.name, validate=False)

    def sorted_by(self, *references: str) -> "Relation":
        """Rows ordered by the given attributes (NULLs first)."""
        indexes = [self.schema.index_of(ref) for ref in references]

        def key(row: Row):
            return tuple(
                (row[i] is not None, row[i]) for i in indexes
            )

        return Relation(self.schema, sorted(self.rows, key=key),
                        name=self.name, validate=False)

    def column(self, reference: str) -> list[Any]:
        """All values of one attribute, in row order."""
        index = self.schema.index_of(reference)
        return [row[index] for row in self.rows]

    def filter_rows(self, predicate: Callable[[Row], bool]) -> "Relation":
        """Plain-Python row filter (testing helper, not an operator)."""
        return Relation(self.schema, [r for r in self.rows if predicate(r)],
                        name=self.name, validate=False)

    # -- display ---------------------------------------------------------------

    def pretty(self, limit: int = 20) -> str:
        """A fixed-width textual rendering of the first ``limit`` rows."""
        headers = [f.full_name for f in self.schema.fields]
        shown = self.rows[:limit]
        cells = [[("NULL" if v is None else str(v)) for v in row] for row in shown]
        widths = [
            max(len(headers[i]), *(len(row[i]) for row in cells), 1)
            if cells else len(headers[i])
            for i in range(len(headers))
        ]
        def fmt(values: Sequence[str]) -> str:
            return " | ".join(v.ljust(w) for v, w in zip(values, widths))

        lines = [fmt(headers), "-+-".join("-" * w for w in widths)]
        lines.extend(fmt(row) for row in cells)
        if len(self.rows) > limit:
            lines.append(f"... ({len(self.rows) - limit} more rows)")
        return "\n".join(lines)
