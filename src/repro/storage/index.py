"""Secondary indexes over stored relations.

Two access methods are provided:

* :class:`HashIndex` — equality lookups on one or more attributes.  This is
  the "hash index strategy" the paper's prototype GMDJ engine was limited to
  (Section 5), and it also backs the native engine's index-assisted
  correlation lookups in the baselines.
* :class:`SortedIndex` — a sorted list with binary search supporting range
  probes; used by the join-unnesting baseline's sort-merge join and by
  inequality correlation predicates.

NULL handling: SQL equality never matches NULL, so rows with a NULL in any
key attribute are excluded from both index types (a probe can never return
them under 3-valued logic).
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator, Sequence

from repro.storage.iostats import IOStats
from repro.storage.relation import Relation, Row


class HashIndex:
    """Equality index mapping key tuples to lists of row positions."""

    __slots__ = ("relation", "key_references", "_key_positions", "_buckets")

    def __init__(self, relation: Relation, key_references: Sequence[str]):
        self.relation = relation
        self.key_references = tuple(key_references)
        self._key_positions = [
            relation.schema.index_of(ref) for ref in key_references
        ]
        self._buckets: dict[tuple, list[int]] = {}
        for position, row in enumerate(relation.rows):
            key = self._key_of(row)
            if key is None:
                continue
            self._buckets.setdefault(key, []).append(position)
        IOStats.ambient().index_builds += 1

    def _key_of(self, row: Row) -> tuple | None:
        key = tuple(row[i] for i in self._key_positions)
        if any(part is None for part in key):
            return None
        return key

    def extended(self, relation: Relation, start: int) -> "HashIndex":
        """The index over ``relation``, which holds this index's rows
        followed by the rows from position ``start`` on.  Copy-on-write
        like the insert it serves: this index, still answering for the
        old relation, is untouched (a grown bucket is a new list)."""
        out = HashIndex.__new__(HashIndex)
        out.relation = relation
        out.key_references = self.key_references
        out._key_positions = self._key_positions
        out._buckets = buckets = dict(self._buckets)
        for position in range(start, len(relation.rows)):
            key = self._key_of(relation.rows[position])
            if key is not None:
                buckets[key] = buckets.get(key, []) + [position]
        return out

    def __len__(self) -> int:
        return len(self._buckets)

    def probe(self, key: Sequence[Any]) -> list[Row]:
        """All rows whose key attributes equal ``key`` (never NULL keys)."""
        IOStats.ambient().index_probes += 1
        if any(part is None for part in key):
            return []
        positions = self._buckets.get(tuple(key), [])
        rows = self.relation.rows
        return [rows[p] for p in positions]

    def probe_positions(self, key: Sequence[Any]) -> list[int]:
        """Row positions instead of rows (used by tuple completion)."""
        IOStats.ambient().index_probes += 1
        if any(part is None for part in key):
            return []
        return self._buckets.get(tuple(key), [])

    def contains(self, key: Sequence[Any]) -> bool:
        IOStats.ambient().index_probes += 1
        if any(part is None for part in key):
            return False
        return tuple(key) in self._buckets


class SortedIndex:
    """Sorted single-attribute index with range probes."""

    __slots__ = ("relation", "key_reference", "_key_position", "_entries")

    def __init__(self, relation: Relation, key_reference: str):
        self.relation = relation
        self.key_reference = key_reference
        self._key_position = relation.schema.index_of(key_reference)
        entries = [
            (row[self._key_position], position)
            for position, row in enumerate(relation.rows)
            if row[self._key_position] is not None
        ]
        entries.sort(key=lambda e: e[0])
        self._entries = entries
        IOStats.ambient().index_builds += 1

    def extended(self, relation: Relation, start: int) -> "SortedIndex":
        """The index over ``relation`` — this index's rows followed by
        the rows from ``start`` on — leaving this one untouched.  A new
        entry goes after its equals, where the stable build sort would
        have put its larger position."""
        out = SortedIndex.__new__(SortedIndex)
        out.relation = relation
        out.key_reference = self.key_reference
        out._key_position = self._key_position
        out._entries = entries = list(self._entries)
        for position in range(start, len(relation.rows)):
            key = relation.rows[position][self._key_position]
            if key is not None:
                bisect.insort_right(entries, (key, position),
                                    key=lambda entry: entry[0])
        return out

    def __len__(self) -> int:
        return len(self._entries)

    def _keys(self) -> list:
        return [key for key, _ in self._entries]

    def range(
        self,
        low: Any = None,
        high: Any = None,
        low_inclusive: bool = True,
        high_inclusive: bool = False,
    ) -> Iterator[Row]:
        """Rows with key in the given (half-open by default) interval."""
        IOStats.ambient().index_probes += 1
        keys = self._keys()
        if low is None:
            start = 0
        elif low_inclusive:
            start = bisect.bisect_left(keys, low)
        else:
            start = bisect.bisect_right(keys, low)
        if high is None:
            stop = len(keys)
        elif high_inclusive:
            stop = bisect.bisect_right(keys, high)
        else:
            stop = bisect.bisect_left(keys, high)
        rows = self.relation.rows
        for _, position in self._entries[start:stop]:
            yield rows[position]

    def equal(self, key: Any) -> Iterator[Row]:
        return self.range(low=key, high=key, high_inclusive=True)
