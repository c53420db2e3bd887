"""What a read derives from the catalog, kept for the next read.

Repeated subquery workloads (dashboards re-issuing the same OLAP
queries, the fuzzer replaying a corpus, benchmark sweeps) pay the
SubqueryToGMDJ translation and a full detail scan on every run even
though nothing changed.  Each database keeps three maps of derived
values, each a :class:`DerivedMap`:

* the **translation map** (:attr:`PlanCache.translations`) maps the
  strategy and a normalized plan rendering (the deterministic
  :func:`repro.algebra.printer.explain` text) to the translated GMDJ
  plan — re-running a query skips the rewrite pipeline;
* the **result map** (:attr:`PlanCache.results`) maps the
  result-relevant :class:`~repro.engine.options.QueryOptions`
  components and the normalized plan to the finished relation —
  re-running skips the scan entirely;
* the **rollup map** (:attr:`repro.engine.rollup.RollupStore.entries`)
  maps a GMDJ node's signature to its output.

The rule all three keep is :class:`DerivedMap`'s, written there once:

* every write clears them (DESIGN.md §5 lists the writes).  An
  ``insert`` changes rows only, so it clears the results and rollups
  (:meth:`PlanCache.invalidate_results`,
  :meth:`~repro.engine.rollup.RollupStore.invalidate_results`) and keeps
  every translation: ``subquery_to_gmdj`` reads schemas, not rows.  DDL
  that changes a schema or an access path can change what a plan
  *means*, and clears all three (:meth:`PlanCache.invalidate`,
  :meth:`~repro.engine.rollup.RollupStore.invalidate`);
* a write can land while a read is in flight, after the read resolved
  its tables and before it keeps what it derived.  So a put carries the
  :attr:`~repro.storage.catalog.Catalog.generation` its read began
  under and is refused if the catalog was written since.  The database
  writes the catalog before it clears, and the check and the put happen
  under the lock the clear takes, so a stale put either lands before
  the clearing or sees the newer generation;
* a serve-tier attempt (:mod:`repro.storage.attempt`) that hands its
  request to a worker takes back every count and put it made, and what
  a put evicted unless a write landed since, so the worker's run counts
  each probe once.

Mutating a :class:`~repro.storage.relation.Relation` object in place
behind the catalog's back bypasses all of this — go through ``insert``
or ``register``.  Profiled runs (``Database.profile``, EXPLAIN ANALYZE)
never consult the result map: a hit would measure nothing.

Each map is thread-safe: the serve tier admits concurrent readers, so
every operation, the put/evict sequence and its undo included, runs
under the map's one lock.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Generic, Hashable, TypeVar

from repro.obs.metrics import get_registry
from repro.storage.attempt import attempting, on_handoff
from repro.storage.catalog import Catalog
from repro.storage.relation import Relation

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class DerivedMap(Generic[K, V]):
    """A bounded LRU map of values derived from the catalog, under the
    module docstring's rule.  Its counts are a probe's ``hit`` and
    ``miss`` (None: the caller counts misses), then ``others``; each is
    mirrored to the registry as ``<prefix>.<name>`` if ``prefix`` is set."""

    def __init__(self, capacity: int, prefix: str | None, hit: str, miss: str | None, *others: str):
        self.capacity = capacity
        self.counts = dict.fromkeys((hit, *([] if miss is None else [miss]), *others), 0)
        self._hit, self._miss = hit, miss
        self._prefix = prefix
        self._entries: OrderedDict[K, V] = OrderedDict()
        self._clears = 0
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: K) -> V | None:
        """The value kept for ``key``, counted as a hit (the entry is
        now the most recent); or None, counted as a miss."""
        with self._lock:
            value = self._entries.get(key)
        if value is not None:
            self.count(self._hit, key)
        elif self._miss is not None:
            self.count(self._miss)
        return value

    def matching(self, keep: Callable[[K], bool]) -> list[tuple[K, V]]:
        """The entries whose key ``keep`` accepts, least recent first."""
        with self._lock:
            return [(key, value) for key, value in self._entries.items() if keep(key)]

    def count(self, name: str, key: K | None = None) -> None:
        """One more ``name`` — a hit on ``key``, which is now the most
        recent entry if it is still kept.  The hit's refresh is not
        taken back on a hand-off: the worker's run makes it again."""
        with self._lock:
            self.counts[name] += 1
            if key is not None and key in self._entries:
                self._entries.move_to_end(key)
        if self._prefix is not None:
            get_registry().counter(f"{self._prefix}.{name}").inc()
        on_handoff(self._uncount, name)

    def _uncount(self, name: str) -> None:
        with self._lock:
            self.counts[name] -= 1

    def put(self, key: K, value: V, catalog: Catalog, generation: int) -> bool:
        """Keep ``value`` for ``key`` unless ``catalog`` was written since
        ``generation``, when the read that derived it began; whether it
        was kept.  At capacity the least recent entry goes."""
        undoable = attempting()
        with self._lock:
            if catalog.generation != generation:
                return False
            entries = self._entries
            # (position, key, value) of what this put replaces or evicts,
            # kept only where a hand-off may take the put back.
            taken = ([(list(entries).index(key), key, entries[key])]
                     if undoable and key in entries else [])
            entries[key] = value
            entries.move_to_end(key)
            while len(entries) > self.capacity:
                taken.append((len(taken), *entries.popitem(last=False)))
            clears = self._clears
        if undoable:
            on_handoff(self._unput, key, value, taken, catalog, generation, clears)
        return True

    def _unput(self, key: K, value: V, taken: list[tuple[int, K, V]],
               catalog: Catalog, generation: int, clears: int) -> None:
        """Take back a put: drop ``value`` and restore what it replaced
        or evicted, each at its old place, unless another put has
        filled that key or the room.  Nothing is restored once the
        catalog was written or the map cleared since the put: what was
        taken may be stale now."""
        with self._lock:
            entries = self._entries
            if entries.get(key) is value:
                del entries[key]
            if not taken or self._clears != clears or catalog.generation != generation:
                return
            items = list(entries.items())
            for position, old_key, old_value in taken:
                if old_key not in entries and len(items) < self.capacity:
                    items.insert(position, (old_key, old_value))
            entries.clear()
            entries.update(items)

    def clear(self, name: str | None = None) -> None:
        """Drop every entry, counted as ``name``."""
        with self._lock:
            self._entries.clear()
            self._clears += 1
        if name is not None:
            self.count(name)


class PlanCache:
    """A database's translation map and result map."""

    def __init__(self, capacity: int = 128):
        self.translations: DerivedMap[Hashable, Any] = DerivedMap(
            capacity, None, "translation_hits", "translation_misses")
        self.results: DerivedMap[Hashable, Relation] = DerivedMap(
            capacity, "cache", "result_hits", "result_misses",
            "invalidations", "table_invalidations")

    @staticmethod
    def plan_key(query: Any) -> str:
        """The normalized rendering that identifies a logical plan."""
        from repro.algebra.printer import explain

        return explain(query)

    def invalidate(self) -> None:
        """Drop every translation and result (DDL that changes a schema
        or an access path: any plan may mean something else now)."""
        self.translations.clear()
        self.results.clear("invalidations")

    def invalidate_results(self) -> None:
        """Rows were appended to a table: drop every result.  Every
        translation still holds (a rewrite depends on schemas, never on
        rows)."""
        self.results.clear("table_invalidations")

    def stats(self) -> dict[str, int]:
        return {"translations": len(self.translations),
                "results": len(self.results),
                **self.translations.counts, **self.results.counts}
