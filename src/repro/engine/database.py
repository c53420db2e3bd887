"""The user-facing database façade.

:class:`Database` bundles a catalog with table/index DDL, query execution
under any strategy, EXPLAIN output, and (once the SQL frontend is bound)
textual SQL.  This is the object the examples and benchmarks construct.

Execution knobs are carried by one frozen
:class:`~repro.engine.options.QueryOptions` object — the *only* options
surface (the PR-3 string-strategy shims are gone)::

    db.execute(query, QueryOptions(strategy="gmdj_optimized",
                                   backend="auto", workers=4))

The canonical execution entry point is the **batch API**:
``execute_batch(queries, options)`` evaluates a list of queries with
cross-query scan sharing (:mod:`repro.engine.mqo`) and returns per-query
results plus a :class:`~repro.engine.mqo.BatchReport`; ``execute(q)`` is
the thin single-query wrapper ``execute_batch([q])[0]``.

Every unprofiled query runs through that batch path, which fronts the
database's :class:`~repro.engine.cache.PlanCache` and
:class:`~repro.engine.rollup.RollupStore`: repeated queries skip
re-translation and, under ``use_cache``, re-scanning — grouped members
and singletons alike.  A write invalidates what it can have changed:
``insert(T)`` drops every cached result and rollup and keeps every
translation, the table's encoding (extended, not rebuilt) and its
indexes; DDL that changes a schema or an access path (``create_table``,
``register``, ``load_csv``, ``load_binary``, ``drop_table``,
``create_index``, ``drop_indexes``) drops everything derived.  Every
write changes the catalog first and invalidates second, so a read that
began before it stores nothing (see :mod:`repro.engine.cache`).

>>> from repro import Database, DataType
>>> db = Database()
>>> _ = db.create_table("T", [("K", DataType.INTEGER)], [(1,), (2,)])
>>> len(db.execute_sql("SELECT K FROM T WHERE K > 1"))
1
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.algebra.operators import Operator
from repro.engine import executor
from repro.engine.cache import Front, PlanCache
from repro.engine.options import QueryOptions
from repro.engine.planner import plan_for
from repro.engine.reports import ExecutionReport
from repro.engine.rollup import RollupStore
from repro.errors import ConfigurationError, ReproError
from repro.gmdj.pool import PoolRegistry, pooling
from repro.storage.catalog import Catalog
from repro.storage.csvio import load_csv
from repro.storage.relation import Relation
from repro.storage.types import DataType

if TYPE_CHECKING:
    from pathlib import Path

    from repro.engine.mqo import BatchResult
    from repro.obs.explain import Explain


class DatabaseClosedError(ReproError):
    """An operation was attempted on a database after ``close()``."""


class Database:
    """An in-process OLAP database with GMDJ-based subquery processing.

    Databases are context managers: long-lived owners (the serve tier's
    per-tenant instances above all) should ``close()`` them — or use
    ``with Database() as db`` — to deterministically release the pooled
    GMDJ worker executors the database accumulated.  Short-lived script
    use needs no close; executors created outside a registry are torn
    down per query.
    """

    def __init__(self, cache_size: int = 128) -> None:
        self.catalog = Catalog()
        self.cache = PlanCache(cache_size)
        self.rollups = RollupStore(cache_size)
        #: Reusable worker executors for pooled (partitioned) GMDJ
        #: evaluation; queries executed through this database share
        #: them instead of paying pool start-up per query.
        self.pools = PoolRegistry()
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release every resource this database owns (idempotent).

        Shuts down the pooled GMDJ worker executors (waiting for
        in-flight partition work, so nothing is abandoned mid-merge) and
        drops the plan/result cache and rollup store.  After close every
        query or DDL entry point raises :class:`DatabaseClosedError`.
        """
        if self._closed:
            return
        self._closed = True
        self.pools.shutdown(wait=True)
        self._invalidate()

    def __enter__(self) -> "Database":
        self._check_open()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise DatabaseClosedError("database is closed")

    def _invalidate(self, written: Any = None) -> Any:
        """Drop everything derived from the catalog's contents, once a
        write has changed them; returns ``written``."""
        self.cache.invalidate()
        self.rollups.invalidate()
        return written

    # -- DDL -----------------------------------------------------------------

    def create_table(
        self,
        name: str,
        columns: Sequence[tuple[str, DataType]],
        rows: Iterable[Sequence[Any]] = (),
    ) -> Relation:
        """Create a table from ``(name, dtype)`` pairs and initial rows."""
        self._check_open()
        relation = Relation.from_columns(columns, rows, name=name)
        return self._invalidate(self.catalog.create_table(name, relation))

    def register(self, name: str, relation: Relation) -> Relation:
        """Install an existing relation as a table (replaces silently)."""
        self._check_open()
        return self._invalidate(self.catalog.replace_table(name, relation))

    def insert(self, name: str, rows: Iterable[Sequence[Any]]) -> Relation:
        """Append rows to an existing table.

        Copy-on-write: the catalog entry is *replaced* by an extended
        copy rather than mutated in place, so an in-flight reader that
        already resolved the old relation keeps scanning a consistent
        snapshot — its row list, its columnar arrays and its indexes.
        The copy's encoding is the old one ``appended`` with the new
        rows (no re-encode), the table's indexes are carried over, and
        every cached result and rollup is dropped.  Translations survive
        (a rewrite reads schemas, never rows).
        """
        self._check_open()
        relation = self.catalog.table(name).extended(rows)
        self.catalog.extend_table(name, relation)
        self.cache.invalidate_results()
        self.rollups.invalidate_results()
        return relation

    def load_csv(self, name: str, path: str | Path) -> Relation:
        """Create a table from a CSV written by ``repro.storage.save_csv``."""
        self._check_open()
        return self._invalidate(
            self.catalog.create_table(name, load_csv(path, name=name)))

    def load_binary(self, name: str, path: str | Path) -> Relation:
        """Create a table from a ``.cols`` binary column directory.

        The loaded relation's one columnar encoding is the
        memory-mapped column files themselves (see
        :mod:`repro.storage.binio`), so vectorized queries scan the
        mapped buffers without re-encoding the rows.
        """
        from repro.storage.binio import load_binary

        self._check_open()
        return self._invalidate(
            self.catalog.create_table(name, load_binary(path, name=name)))

    def create_index(self, table: str, attribute: str) -> None:
        """Create a single-attribute hash index (conventional engines'
        correlation lookups and indexed joins use these)."""
        self._check_open()
        self.catalog.create_hash_index(table, [attribute])
        self._invalidate()

    def drop_table(self, name: str) -> None:
        """Remove a table (and its indexes) from the catalog."""
        self._check_open()
        self.catalog.drop_table(name)
        self._invalidate()

    def drop_indexes(self, table: str | None = None) -> int:
        """Drop indexes to study strategy stability (Figure 5)."""
        self._check_open()
        return self._invalidate(self.catalog.drop_all_indexes(table))

    def table(self, name: str) -> Relation:
        return self.catalog.table(name)

    # -- queries ----------------------------------------------------------------

    @staticmethod
    def _require_options(
        options: QueryOptions | None, caller: str
    ) -> QueryOptions:
        """The strict options surface: QueryOptions or None, nothing else
        (the string-strategy shims are gone; anything else raises
        :class:`~repro.errors.ConfigurationError` naming the migration).
        """
        if options is None:
            return QueryOptions()
        if isinstance(options, QueryOptions):
            return options
        raise ConfigurationError(
            f"Database.{caller} takes QueryOptions or None; the "
            f"deprecated string-strategy shim was removed — pass "
            f"QueryOptions(strategy=...) instead of {options!r}"
        )

    def execute(
        self,
        query: Operator,
        options: QueryOptions | None = None,
    ) -> Relation:
        """Evaluate an algebra query (flat or nested) under the options.

        Thin wrapper over the canonical batch path:
        ``execute(q, opts)`` is ``execute_batch([q], opts)[0]``.
        """
        return self.execute_batch([query], options)[0]

    def execute_batch(
        self,
        queries: Sequence[Operator],
        options: QueryOptions | None = None,
        fronts: Sequence[Front] | None = None,
    ) -> BatchResult:
        """Evaluate a batch of queries with cross-query scan sharing.

        Share-compatible members (same detail table, same base values —
        see :mod:`repro.engine.mqo`) are coalesced into one
        multi-consumer GMDJ over a single detail scan.  Returns a
        :class:`~repro.engine.mqo.BatchResult` — index it for per-query
        relations, read ``.report`` for share groups, scans saved, and
        cost certificates.  ``fronts``: the queries' front-map entries.
        """
        from repro.engine.mqo import execute_batch

        options = self._require_options(options, "execute_batch")
        self._check_open()
        with pooling(self.pools):
            return execute_batch(self, list(queries), options, fronts)

    def profile(
        self,
        query: Operator,
        options: QueryOptions | None = None,
    ) -> ExecutionReport:
        """Evaluate and return timing plus work counters.

        Under ``QueryOptions(trace=True)`` the run also records an
        operator span tree (attached as ``report.trace``) for EXPLAIN
        ANALYZE and the invariant checker.  A profiled run always
        executes — its purpose is measurement — so it skips the result
        cache; it still shares the translation cache and the rollup
        store.  Pooled partitioned evaluation reuses this database's
        worker executors, as every run does.
        """
        options = self._require_options(options, "profile")
        self._check_open()
        with pooling(self.pools):
            return executor.profile(query, self.catalog, options,
                                    cache=self.cache, rollups=self.rollups)

    def explain(
        self,
        query: Operator,
        options: QueryOptions | None = None,
    ) -> Explain:
        """The plan the given options would execute, as an
        :class:`~repro.obs.explain.Explain` report (a ``str`` subclass
        with ``.text()`` / ``.json()`` renderers)."""
        from repro.obs.explain import explain_report

        options = self._require_options(options, "explain")
        self._check_open()
        return explain_report(self, query, options)

    def explain_analyze(
        self,
        query: Operator,
        options: QueryOptions | None = None,
        *,
        strict: bool = False,
    ) -> Explain:
        """EXPLAIN plus actual execution: plan text, the measured span
        tree with per-operator counter deltas, and the invariant
        checker's verdict — one :class:`~repro.obs.explain.Explain`
        report whose ``.json()`` is the machine-readable trace export."""
        from repro.obs.explain import explain_report

        options = self._require_options(options, "explain_analyze")
        return explain_report(self, query, options, analyze=True,
                              strict=strict)

    def explain_batch(
        self,
        queries: Sequence[Operator],
        options: QueryOptions | None = None,
    ) -> Explain:
        """EXPLAIN for a batch: the share groups the MQO planner would
        form, each group's coalesced plan and certificate, and the
        singleton plans — without executing anything."""
        from repro.obs.explain import explain_batch

        options = self._require_options(options, "explain_batch")
        self._check_open()
        return explain_batch(self, list(queries), options)

    # -- SQL ------------------------------------------------------------------------

    def sql(self, text: str) -> Operator:
        """Parse and bind a SQL query into a (possibly nested) algebra tree."""
        self._check_open()
        from repro.sql import compile_sql

        return compile_sql(text, self.catalog)

    def execute_sql(
        self,
        text: str,
        options: QueryOptions | None = None,
    ) -> Relation:
        """Parse, bind, and evaluate a SQL query."""
        return self.execute_sql_batch([text], options)[0]

    def execute_sql_batch(
        self,
        texts: Sequence[str],
        options: QueryOptions | None = None,
    ) -> BatchResult:
        """Parse, bind, and evaluate a batch of SQL queries with
        cross-query scan sharing; see :meth:`execute_batch`.  A run
        that asks for a tier (``use_cache`` or ``rollup="subsume"``)
        binds each text through the front map; one that asks for none
        stays cold."""
        options = self._require_options(options, "execute_batch")
        if not (options.use_cache or options.rollup == "subsume"):
            return self.execute_batch([self.sql(text) for text in texts], options)
        self._check_open()
        fronts = [self._front(text, options) for text in texts]
        return self.execute_batch([front.query for front in fronts], options, fronts)

    def _front(self, text: str, options: QueryOptions) -> Front:
        """``text``'s front-map entry under ``options``, made if missing."""
        front = self.cache.fronts.get((text, options))
        if front is None:
            generation, query = self.catalog.generation, self.sql(text)
            front = (Front(query, (options.cache_key(), PlanCache.plan_key(query)), None)
                     if options.use_cache else
                     Front(query, None, plan_for(query, self.catalog, options.strategy)))
            self.cache.fronts.put((text, options), front, self.catalog, generation)
        return front

    def profile_sql(
        self,
        text: str,
        options: QueryOptions | None = None,
    ) -> ExecutionReport:
        return self.profile(self.sql(text), options)
