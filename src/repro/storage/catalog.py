"""The catalog: named relations and their indexes.

A :class:`Catalog` owns base tables and tracks which attributes are indexed.
The planner and the baselines consult it to decide between indexed and
scan-based access paths — the experiments in Figures 2–5 of the paper hinge
on dropping indexes and watching which strategy stays stable, so index
creation and dropping are first-class operations here.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import CatalogError
from repro.storage.index import HashIndex, SortedIndex
from repro.storage.relation import Relation


class Catalog:
    """A name → relation mapping with per-table index registries."""

    def __init__(self) -> None:
        self._tables: dict[str, Relation] = {}
        self._hash_indexes: dict[tuple[str, tuple[str, ...]], HashIndex] = {}
        self._sorted_indexes: dict[tuple[str, str], SortedIndex] = {}
        #: Bumped by every table or index write, once it is visible; what
        #: is derived from the contents is kept only if it did not move
        #: (see :mod:`repro.engine.cache`).
        self.generation = 0

    # -- tables ----------------------------------------------------------------

    def create_table(self, name: str, relation: Relation) -> Relation:
        if name in self._tables:
            raise CatalogError(f"table {name!r} already exists")
        relation.name = name
        self._tables[name] = relation
        self.generation += 1
        return relation

    def replace_table(self, name: str, relation: Relation) -> Relation:
        """Install or overwrite a table, invalidating its indexes."""
        relation.name = name
        self._tables[name] = relation
        self._hash_indexes = {
            key: idx for key, idx in self._hash_indexes.items() if key[0] != name
        }
        self._sorted_indexes = {
            key: idx for key, idx in self._sorted_indexes.items() if key[0] != name
        }
        self.generation += 1
        return relation

    def extend_table(self, name: str, relation: Relation) -> Relation:
        """Install ``relation`` — table ``name``'s rows followed by
        appended ones — and carry the table's indexes over to it.

        Each index is replaced by its ``extended`` twin over the new
        relation; the old index objects keep answering for the old
        relation, so a reader that resolved either keeps a consistent
        pair.  (:meth:`replace_table` is for an unrelated relation and
        drops the indexes.)
        """
        start = len(self.table(name))
        relation.name = name
        self._tables[name] = relation
        for registry in (self._hash_indexes, self._sorted_indexes):
            for key in [key for key in registry if key[0] == name]:
                registry[key] = registry[key].extended(relation, start)
        self.generation += 1
        return relation

    def drop_table(self, name: str) -> None:
        if name not in self._tables:
            raise CatalogError(f"no such table {name!r}")
        del self._tables[name]
        self._hash_indexes = {
            key: idx for key, idx in self._hash_indexes.items() if key[0] != name
        }
        self._sorted_indexes = {
            key: idx for key, idx in self._sorted_indexes.items() if key[0] != name
        }
        self.generation += 1

    def table(self, name: str) -> Relation:
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"no such table {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    # -- indexes ---------------------------------------------------------------

    def create_hash_index(self, table: str, attributes: Sequence[str]) -> HashIndex:
        relation = self.table(table)
        key = (table, tuple(attributes))
        if key in self._hash_indexes:
            raise CatalogError(f"hash index on {key} already exists")
        index = HashIndex(relation, attributes)
        self._hash_indexes[key] = index
        self.generation += 1
        return index

    def create_sorted_index(self, table: str, attribute: str) -> SortedIndex:
        relation = self.table(table)
        key = (table, attribute)
        if key in self._sorted_indexes:
            raise CatalogError(f"sorted index on {key} already exists")
        index = SortedIndex(relation, attribute)
        self._sorted_indexes[key] = index
        self.generation += 1
        return index

    def hash_index(self, table: str, attributes: Sequence[str]) -> HashIndex | None:
        return self._hash_indexes.get((table, tuple(attributes)))

    def sorted_index(self, table: str, attribute: str) -> SortedIndex | None:
        return self._sorted_indexes.get((table, attribute))

    def indexed_attributes(self, table: str) -> set[str]:
        """All attributes of ``table`` covered by a single-column index."""
        single = {
            attrs[0]
            for (tbl, attrs) in self._hash_indexes
            if tbl == table and len(attrs) == 1
        }
        single |= {attr for (tbl, attr) in self._sorted_indexes if tbl == table}
        return single

    def drop_all_indexes(self, table: str | None = None) -> int:
        """Drop indexes (of one table, or all); returns how many were dropped.

        Used by the Figure 5 experiment to study strategy stability when
        indexes are absent.
        """
        def keep(key_table: str) -> bool:
            return table is not None and key_table != table

        dropped = 0
        for registry in (self._hash_indexes, self._sorted_indexes):
            stale = [key for key in registry if not keep(key[0])]
            dropped += len(stale)
            for key in stale:
                del registry[key]
        self.generation += 1
        return dropped
