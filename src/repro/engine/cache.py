"""Normalized-plan-keyed translation and result caching.

Repeated subquery workloads (dashboards re-issuing the same OLAP
queries, the fuzzer replaying a corpus, benchmark sweeps) pay the
SubqueryToGMDJ translation and a full detail scan on every run even
though nothing changed.  :class:`PlanCache` memoizes both layers:

* the **translation cache** maps a normalized plan rendering (the
  deterministic :func:`repro.algebra.printer.explain` text) plus the
  translation flags to the translated GMDJ plan — re-running a query
  skips the rewrite pipeline;
* the **result cache** maps the normalized plan plus the
  result-relevant :class:`~repro.engine.options.QueryOptions` components
  to the finished relation — re-running skips the scan entirely.

Both are bounded LRU maps.  Staleness is handled by *explicit
invalidation*, scoped to what a write can change:

* ``Database.insert(T)`` changes the rows of one table and nothing
  else, so it drops the cached **results** whose plan reads ``T``
  (:meth:`PlanCache.invalidate_table`; every entry records
  :func:`scanned_tables` of its query) and keeps the rest.  It never
  drops a **translation**: ``subquery_to_gmdj`` reads schemas, not rows.
* DDL that changes a schema or an access path — ``create_table``,
  ``register``, ``load_csv``, ``load_binary``, ``drop_table``,
  ``create_index``, ``drop_indexes`` — can change what a plan *means*,
  and clears everything (:meth:`PlanCache.invalidate`).

Mutating a :class:`~repro.storage.relation.Relation` object in place
behind the catalog's back bypasses both — go through ``insert`` or
``register``.

Profiled runs (``Database.profile``, EXPLAIN ANALYZE) never consult the
result cache: their purpose is to measure the work, and a cache hit
would measure nothing.

The maps are thread-safe: the serve tier admits concurrent readers
against one database (DDL is exclusive under the tenant's
reader-writer lock, but two reads may store results at once), so every
LRU operation — including the multi-step put/evict sequence — runs
under a per-cache lock.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import is_dataclass
from enum import Enum
from typing import Any, Callable, Hashable

from repro.algebra.operators import ScanTable
from repro.obs.metrics import get_registry
from repro.storage.relation import Relation


#: What a plan holds besides nodes and containers: plain values, and the
#: relation *value* inside a ``TableValue`` — nothing a later write to
#: the catalog changes.
_LEAVES = (str, bytes, int, float, bool, type(None), Enum, Relation)


def scanned_tables(plan: Any) -> frozenset[str] | None:
    """The stored tables ``plan`` reads: the name of every ``ScanTable``
    reachable from it — through operator children, GMDJ θ-blocks, and
    the subqueries inside nested predicates and APPLY nodes alike.

    Operators, expressions, blocks and subqueries are all dataclasses,
    so the walk follows fields (and the containers in them) rather than
    knowing each node type.  It fails closed: on anything it cannot see
    into — an object that is neither a dataclass, a container nor one of
    ``_LEAVES`` — the answer is ``None``, "may read any table", and
    :func:`reads` drops such an entry on every insert rather than risk
    serving it stale.
    """
    tables: set[str] = set()
    stack = [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, ScanTable):
            tables.add(node.table_name)
        elif isinstance(node, (tuple, list, set, frozenset)):
            stack.extend(node)
        elif isinstance(node, dict):
            stack.extend(node)
            stack.extend(node.values())
        elif is_dataclass(node) and not isinstance(node, type):
            stack.extend(getattr(node, name)
                         for name in node.__dataclass_fields__)
        elif not isinstance(node, _LEAVES):
            return None
    return frozenset(tables)


def reads(tables: frozenset[str] | None, table: str) -> bool:
    """Whether a plan with these :func:`scanned_tables` reads ``table``."""
    return tables is None or table in tables


class _LRU:
    """A small insertion-bounded LRU map (thread-safe)."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> Any:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def discard(self, stale: Callable[[Any], bool]) -> int:
        """Drop the entries whose value is ``stale``; returns how many."""
        with self._lock:
            dropped = [key for key, entry in self._entries.items()
                       if stale(entry)]
            for key in dropped:
                del self._entries[key]
            return len(dropped)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries


class PlanCache:
    """Per-database LRU cache of translated plans and query results."""

    def __init__(self, capacity: int = 128):
        self.capacity = capacity
        self._translations = _LRU(capacity)
        self._results = _LRU(capacity)
        self.translation_hits = 0
        self.translation_misses = 0
        self.result_hits = 0
        self.result_misses = 0
        self.invalidations = 0
        self.table_invalidations = 0
        #: Results the last ``invalidate_table`` kept / dropped.
        self.last_insert_kept = 0
        self.last_insert_dropped = 0

    # -- keys ------------------------------------------------------------------

    @staticmethod
    def plan_key(query: Any) -> str:
        """The normalized rendering that identifies a logical plan."""
        from repro.algebra.printer import explain

        return explain(query)

    # -- translation cache -----------------------------------------------------

    def translation(self, key: Hashable) -> Any:
        """A cached translated plan, or None (counts hit/miss)."""
        plan = self._translations.get(key)
        if plan is None:
            self.translation_misses += 1
        else:
            self.translation_hits += 1
        return plan

    def store_translation(self, key: Hashable, plan: Any) -> None:
        self._translations.put(key, plan)

    # -- result cache ----------------------------------------------------------

    def result(self, key: Hashable) -> Relation | None:
        """A cached result relation (defensively copied), or None."""
        entry = self._results.get(key)
        if entry is None:
            self.result_misses += 1
            get_registry().counter("cache.result_misses").inc()
            return None
        self.result_hits += 1
        get_registry().counter("cache.result_hits").inc()
        # Copy rows so a caller mutating the returned relation cannot
        # corrupt later hits.
        return entry[0].copy()

    def store_result(self, key: Hashable, relation: Relation,
                     tables: frozenset[str] | None) -> None:
        """Cache ``relation`` as the answer to ``key``, whose plan reads
        the stored ``tables`` (:func:`scanned_tables`)."""
        # Snapshot: the caller holds (and may mutate) the original.
        self._results.put(key, (relation.copy(), tables))

    # -- lifecycle -------------------------------------------------------------

    def invalidate(self) -> None:
        """Drop every cached artifact (DDL that changes a schema or an
        access path: any plan may mean something else now)."""
        self._translations.clear()
        self._results.clear()
        self.invalidations += 1
        get_registry().counter("cache.invalidations").inc()

    def invalidate_table(self, table: str) -> None:
        """Rows were appended to ``table``: drop the results whose plan
        reads it.  Other results still hold, and so does every
        translation (a rewrite depends on schemas, never on rows)."""
        dropped = self._results.discard(lambda entry: reads(entry[1], table))
        self.table_invalidations += 1
        self.last_insert_dropped = dropped
        self.last_insert_kept = len(self._results)
        get_registry().counter("cache.table_invalidations").inc()

    def stats(self) -> dict[str, int]:
        return {
            "translations": len(self._translations),
            "results": len(self._results),
            "translation_hits": self.translation_hits,
            "translation_misses": self.translation_misses,
            "result_hits": self.result_hits,
            "result_misses": self.result_misses,
            "invalidations": self.invalidations,
            "table_invalidations": self.table_invalidations,
            "last_insert_kept": self.last_insert_kept,
            "last_insert_dropped": self.last_insert_dropped,
        }
