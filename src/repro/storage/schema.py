"""Schemas: ordered, possibly qualified attribute lists.

A :class:`Field` is an attribute with an optional *qualifier* (the relation
alias it came from, e.g. ``F`` in ``F.StartTime``).  A :class:`Schema` is an
ordered sequence of fields and provides the name-resolution rules used by
every expression in the library:

* ``"StartTime"`` matches any field named ``StartTime`` regardless of
  qualifier; it is an error if more than one field matches.
* ``"F.StartTime"`` matches only a field named ``StartTime`` whose qualifier
  is ``F``.

Renaming a relation (the paper's ``Flow -> F`` notation) replaces the
qualifier of every field, which is how correlated conditions such as
``F_1.SourceIP = F_0.SourceIP`` distinguish two scans of the same table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.errors import (
    AmbiguousAttributeError,
    SchemaError,
    UnknownAttributeError,
)
from repro.storage.types import DataType


@dataclass(frozen=True)
class Field:
    """A single attribute: optional qualifier, name, and declared type."""

    name: str
    dtype: DataType
    qualifier: str | None = None

    @property
    def full_name(self) -> str:
        """The display name, qualified when a qualifier is present."""
        if self.qualifier is None:
            return self.name
        return f"{self.qualifier}.{self.name}"

    def matches(self, reference: str) -> bool:
        """True when ``reference`` (qualified or bare) refers to this field."""
        if "." in reference:
            qualifier, _, name = reference.partition(".")
            return self.name == name and self.qualifier == qualifier
        return self.name == reference

    def with_qualifier(self, qualifier: str | None) -> "Field":
        return Field(self.name, self.dtype, qualifier)


#: How many re-qualified schemas one schema keeps (:meth:`Schema.rename`);
#: a memo that is full starts over, so a stream of distinct aliases over
#: one table cannot grow it.
RENAME_MEMO_LIMIT = 32


class Schema:
    """An ordered list of fields with unambiguous-resolution helpers.

    A schema never changes once built, so :meth:`rename` hands back the
    schema it built for a qualifier before.
    """

    __slots__ = ("fields", "_exact", "_renamed")

    def __init__(self, fields: Iterable[Field]):
        self.fields: tuple[Field, ...] = tuple(fields)
        seen: set[tuple[str | None, str]] = set()
        for field in self.fields:
            key = (field.qualifier, field.name)
            if key in seen:
                raise SchemaError(f"duplicate attribute {field.full_name!r}")
            seen.add(key)
        self._exact = {field.full_name: i for i, field in enumerate(self.fields)}
        self._renamed: dict[str, Schema] = {}

    def __reduce__(self) -> tuple:
        # Pickles (pool tasks) carry the fields, not the rename memo.
        return Schema, (self.fields,)

    @staticmethod
    def of(*pairs: tuple[str, DataType], qualifier: str | None = None) -> "Schema":
        """Convenience constructor from ``(name, dtype)`` pairs."""
        return Schema(Field(name, dtype, qualifier) for name, dtype in pairs)

    def __len__(self) -> int:
        return len(self.fields)

    def __iter__(self) -> Iterator[Field]:
        return iter(self.fields)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self.fields == other.fields

    def __repr__(self) -> str:
        inner = ", ".join(f"{f.full_name}:{f.dtype.value}" for f in self.fields)
        return f"Schema({inner})"

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(field.full_name for field in self.fields)

    def index_of(self, reference: str) -> int:
        """Resolve an attribute reference to a column position.

        Raises :class:`UnknownAttributeError` when nothing matches and
        :class:`AmbiguousAttributeError` when several fields match a bare
        (unqualified) reference.
        """
        exact = self._exact.get(reference)
        if exact is not None:
            return exact
        matches = self._matches(reference)
        if not matches:
            raise UnknownAttributeError(
                f"unknown attribute {reference!r}; schema has {list(self.names)}"
            )
        if len(matches) > 1:
            raise AmbiguousAttributeError(
                f"ambiguous attribute {reference!r}; matches "
                f"{[self.fields[i].full_name for i in matches]}"
            )
        return matches[0]

    def field_of(self, reference: str) -> Field:
        return self.fields[self.index_of(reference)]

    def _matches(self, reference: str) -> list[int]:
        return [i for i, field in enumerate(self.fields)
                if field.matches(reference)]

    def has(self, reference: str) -> bool:
        """True when ``reference`` resolves (unambiguously) in this schema."""
        return reference in self._exact or len(self._matches(reference)) == 1

    def qualifiers(self) -> set[str]:
        """The set of non-None qualifiers appearing in this schema."""
        return {f.qualifier for f in self.fields if f.qualifier is not None}

    def rename(self, qualifier: str) -> "Schema":
        """Replace the qualifier of every field (``Flow -> F``)."""
        renamed = self._renamed.get(qualifier)
        if renamed is None:
            renamed = Schema(field.with_qualifier(qualifier)
                             for field in self.fields)
            if len(self._renamed) >= RENAME_MEMO_LIMIT:
                self._renamed.clear()
            self._renamed[qualifier] = renamed
        return renamed

    def concat(self, other: "Schema") -> "Schema":
        """Schema of a product/join of two relations."""
        return Schema(self.fields + other.fields)

    def project(self, references: Sequence[str]) -> "Schema":
        """Schema restricted to the given references, in the given order."""
        return Schema(self.field_of(ref) for ref in references)

    def extend(self, fields: Iterable[Field]) -> "Schema":
        """Schema with extra fields appended (used by GMDJ output)."""
        return Schema(self.fields + tuple(fields))
