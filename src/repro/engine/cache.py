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
invalidation* after every write:

* ``Database.insert(T)`` changes rows and nothing else, so it drops
  every cached **result** (:meth:`PlanCache.invalidate_results`) and
  keeps every **translation**: ``subquery_to_gmdj`` reads schemas, not
  rows.
* DDL that changes a schema or an access path — ``create_table``,
  ``register``, ``load_csv``, ``load_binary``, ``drop_table``,
  ``create_index``, ``drop_indexes`` — can change what a plan *means*,
  and clears everything (:meth:`PlanCache.invalidate`).

A write can also land while a read is in flight, after the read
resolved its tables and before it stores what it computed.  So each
store carries the :attr:`~repro.storage.catalog.Catalog.generation` its
work began under and is dropped if the catalog was written since.  The
database writes the catalog before it invalidates, and the check and
the store happen under the lock invalidation takes, so a stale store
either lands before the clearing or sees the newer generation.

Mutating a :class:`~repro.storage.relation.Relation` object in place
behind the catalog's back bypasses both — go through ``insert`` or
``register``.

Profiled runs (``Database.profile``, EXPLAIN ANALYZE) never consult the
result cache: their purpose is to measure the work, and a cache hit
would measure nothing.

A serve-tier attempt (:mod:`repro.storage.attempt`) that hands its
request to a worker takes back every count and store it made here, so
the worker's run counts each probe once.

The cache is thread-safe: the serve tier admits concurrent readers
against one database (DDL is exclusive under the tenant's
reader-writer lock, but two reads may store results at once), so every
LRU operation — including the multi-step put/evict sequence — runs
under the cache's one lock.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable

from repro.obs.metrics import get_registry
from repro.storage.attempt import count, on_handoff
from repro.storage.catalog import Catalog
from repro.storage.relation import Relation


class PlanCache:
    """Per-database LRU cache of translated plans and query results."""

    def __init__(self, capacity: int = 128):
        self.capacity = capacity
        self._translations: OrderedDict[Hashable, Any] = OrderedDict()
        self._results: OrderedDict[Hashable, Relation] = OrderedDict()
        self.translation_hits = 0
        self.translation_misses = 0
        self.result_hits = 0
        self.result_misses = 0
        self.invalidations = 0
        self.table_invalidations = 0
        #: Serializes every map operation; invalidation holds it, as does
        #: each generation check together with the store it admits.
        self._lock = threading.Lock()

    # -- the two bounded LRU maps (callers hold ``_lock``) ---------------------

    def _get(self, entries: OrderedDict, key: Hashable) -> Any:
        entry = entries.get(key)
        if entry is not None:
            entries.move_to_end(key)
        return entry

    def _put(self, entries: OrderedDict, key: Hashable, value: Any) -> None:
        entries[key] = value
        entries.move_to_end(key)
        while len(entries) > self.capacity:
            entries.popitem(last=False)
        on_handoff(self._unput, entries, key, value)

    def _unput(self, entries: OrderedDict, key: Hashable, value: Any) -> None:
        with self._lock:
            if entries.get(key) is value:
                del entries[key]

    # -- keys ------------------------------------------------------------------

    @staticmethod
    def plan_key(query: Any) -> str:
        """The normalized rendering that identifies a logical plan."""
        from repro.algebra.printer import explain

        return explain(query)

    # -- translation cache -----------------------------------------------------

    def translation(self, key: Hashable) -> Any:
        """A cached translated plan, or None (counts hit/miss)."""
        with self._lock:
            plan = self._get(self._translations, key)
        count(self, "translation_misses" if plan is None
              else "translation_hits", self._lock)
        return plan

    def store_translation(self, key: Hashable, plan: Any, catalog: Catalog,
                          generation: int) -> None:
        """Cache ``plan`` unless ``catalog`` was written since
        ``generation``, when its translation began."""
        with self._lock:
            if catalog.generation == generation:
                self._put(self._translations, key, plan)

    # -- result cache ----------------------------------------------------------

    def result(self, key: Hashable) -> Relation | None:
        """A cached result relation (defensively copied), or None."""
        with self._lock:
            entry = self._get(self._results, key)
        if entry is None:
            count(self, "result_misses", self._lock)
            get_registry().counter("cache.result_misses").inc()
            return None
        count(self, "result_hits", self._lock)
        get_registry().counter("cache.result_hits").inc()
        # Copy rows so a caller mutating the returned relation cannot
        # corrupt later hits.
        return entry.copy()

    def store_result(self, key: Hashable, relation: Relation,
                     catalog: Catalog, generation: int) -> None:
        """Cache ``relation`` as the answer to ``key`` unless ``catalog``
        was written since ``generation``, when its run began."""
        # Snapshot: the caller holds (and may mutate) the original.
        snapshot = relation.copy()
        with self._lock:
            if catalog.generation == generation:
                self._put(self._results, key, snapshot)

    # -- lifecycle -------------------------------------------------------------

    def invalidate(self) -> None:
        """Drop every cached artifact (DDL that changes a schema or an
        access path: any plan may mean something else now)."""
        with self._lock:
            self._translations.clear()
            self._results.clear()
            self.invalidations += 1
        get_registry().counter("cache.invalidations").inc()

    def invalidate_results(self) -> None:
        """Rows were appended to a table: drop every result.  Every
        translation still holds (a rewrite depends on schemas, never on
        rows)."""
        with self._lock:
            self._results.clear()
            self.table_invalidations += 1
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
        }
