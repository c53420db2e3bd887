"""Per-tenant serving state and the tiered request execution path.

Each tenant is one :class:`~repro.engine.database.Database` plus the
:class:`~repro.serve.locks.ReadWriteLock` that orders its requests:
queries and explains run under the shared read lock, DDL under the
exclusive write lock.  The functions here are the request bodies the
service runs — everything inside them is synchronous and thread-safe.

A query request flows through the serving tiers in order, all inside
one read-lock hold:

1. **result cache** — exact (plan text, options) key, found from the
   SQL text without parsing; a ``/query`` hit answers with the body
   encoded at its stored result's first hit, ``elapsed_ms`` patched in;
2. **rollup store** — semantic reuse of materialized GMDJ outputs
   (exact signature or subsumption), zero detail scans on a hit;
3. **execution** — the normal planner/kernel path, whose pooled
   partitioned evaluation reuses the tenant database's persistent
   executors.

The first two read no stored table, so the service tries each
``/query`` and ``/batch`` that a tier may answer on its event loop
first, as an attempt (:mod:`repro.storage.attempt`): the same body, in
which the third tier's first stored-table read — or a writer holding or
awaiting the lock — raises :class:`~repro.storage.attempt.HandOff`.
The request then runs again on a worker thread, which finds its texts
in the front map unless the attempt was the first to bind them.

A ``/query`` runs as a batch of one, so ``/query`` and ``/batch`` share
one request body (:meth:`Tenant._serve`).  Which tier answered is read
off the request's private metrics registry
(:class:`~repro.obs.metrics.metrics_scope` isolates it from interleaved
requests).  The request's IOStats delta rides along in the response,
its ``detail_scans`` counter included — so a client, or the CI smoke
leg, can verify the zero-detail-scan invariant for rollup-served
requests over plain HTTP.  Nothing here installs a tracer.
"""

from __future__ import annotations

import dataclasses
import re
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.engine.database import Database
from repro.engine.options import QueryOptions
from repro.errors import ConfigurationError, ReproError
from repro.obs.metrics import metrics_scope
from repro.serve.http import Encoded, encode
from repro.serve.locks import LockTimeout, ReadWriteLock
from repro.storage.attempt import HandOff, attempting
from repro.storage.iostats import collect
from repro.storage.relation import Relation
from repro.storage.types import DataType


class DeadlineExceeded(Exception):
    """The request's deadline passed before its work completed."""


class TenantLimitError(Exception):
    """Creating one more tenant would exceed the configured cap."""


_TENANT_NAME = re.compile(r"[A-Za-z0-9_.\-]{1,64}")

#: QueryOptions fields a request body may set.  ``trace`` and the
#: fragmenter knobs ``partitions`` / ``workers`` are the server's
#: decision: neither count has an upper bound, and a fragment count
#: builds one relation per fragment, a worker count one cached pool.
#: Anything else is rejected.
OPTION_FIELDS = frozenset({"strategy", "backend", "use_cache", "rollup"})

#: The options of a request that sends none; shared, never rebuilt.
DEFAULT_OPTIONS = QueryOptions()


def parse_options(payload) -> QueryOptions:
    """Build the request's QueryOptions over :data:`DEFAULT_OPTIONS`.

    ``payload`` is the request body's ``options`` object (or None).
    Unknown keys raise — a typo silently falling back to defaults would
    make a load test measure the wrong engine — and so do values of the
    wrong type (``QueryOptions`` checks them on construction), so a bad
    body is a 400 and never runs.
    """
    if payload is None:
        return DEFAULT_OPTIONS
    if not isinstance(payload, dict):
        raise ConfigurationError("options must be a JSON object")
    unknown = set(payload) - OPTION_FIELDS
    if unknown:
        raise ConfigurationError(
            f"unknown option field(s) {sorted(unknown)}; "
            f"allowed: {sorted(OPTION_FIELDS)}"
        )
    return dataclasses.replace(DEFAULT_OPTIONS, **payload)


def tenant_name(name: object) -> str:
    """``name`` if it names a tenant; a :class:`ReproError` otherwise."""
    if not isinstance(name, str) or not _TENANT_NAME.fullmatch(name):
        raise ReproError(
            f"invalid tenant name {name!r} (1-64 chars of [A-Za-z0-9_.-])")
    return name


def remaining(deadline: float | None) -> float | None:
    """Seconds left until ``deadline`` (monotonic); raises when spent."""
    if deadline is None:
        return None
    left = deadline - time.monotonic()
    if left <= 0:
        raise DeadlineExceeded("deadline exceeded before execution")
    return left


def json_rows(result: Relation) -> list[list]:
    """The ``rows`` of a response: one JSON array per result row, in one
    pass over the row list the engine built (``executor._detached``)."""
    return [list(row) for row in result.rows]


def _served_by(registry) -> str:
    """Classify which serving tier answered, from the request metrics."""
    counters = registry.counters
    if "cache.result_hits" in counters and counters["cache.result_hits"].value:
        return "cache"
    hits = sum(
        counters[name].value
        for name in ("rollup.exact_hits", "rollup.subsume_hits")
        if name in counters
    )
    if hits:
        misses = counters.get("rollup.misses")
        return "rollup" if misses is None or not misses.value else "mixed"
    return "execute"


@dataclass
class Tenant:
    """One tenant's database plus its request-ordering lock."""

    name: str
    db: Database
    lock: ReadWriteLock = field(default_factory=ReadWriteLock)
    created_at: float = field(default_factory=time.time)
    queries: int = 0
    ddl: int = 0

    # -- request bodies --------------------------------------------------------

    def run_query(self, sql: str, options: QueryOptions,
                  deadline: float | None = None) -> dict:
        """Tiered query execution under the shared read lock: a batch of
        one, as ``Database.execute_sql`` runs it."""
        def respond(batch, metrics) -> dict:
            result = batch[0]
            return {
                "columns": list(result.schema.names),
                "rows": json_rows(result),
                "row_count": len(result),
                "served_by": _served_by(metrics),
            }

        return self._serve((sql,), options, deadline, respond, keep=True)

    def run_batch(self, sqls: Sequence[str], options: QueryOptions,
                  deadline: float | None = None) -> dict:
        """Execute a ``/batch`` request with cross-query scan sharing.

        One read-lock hold covers the whole batch (members share a
        catalog snapshot — the MQO merge requires it).  The response
        reconciles by construction: each item's ``io`` and
        ``detail_scans`` are its fractional attribution from the batch
        engine, and their sums equal the batch-level totals measured
        here, so ``/metrics`` stays consistent with per-request
        certificates.
        """
        def respond(batch, metrics) -> dict:
            report = batch.report
            return {
                "results": [{
                    "index": item.index,
                    "columns": list(item.result.schema.names),
                    "rows": json_rows(item.result),
                    "row_count": len(item.result),
                    "elapsed_ms": round(item.elapsed_seconds * 1000, 3),
                    "group": item.group_id,
                    "shared": item.shared,
                    "detail_scans": item.detail_scans,
                    "io": item.io_json(),
                } for item in batch.items],
                "batch": report.to_json(),
                "scans_saved": report.scans_saved,
            }

        return self._serve(sqls, options, deadline, respond)

    def _serve(self, sqls: Sequence[str], options: QueryOptions,
               deadline: float | None, respond, keep: bool = False) -> dict:
        """One request: ``sqls`` as one batch under the read lock, timed
        (parse and bind included) inside a private metrics registry and
        IOStats collection; ``respond(batch, metrics)`` supplies the
        payload fields particular to the endpoint.  Under ``keep`` a result-cache hit
        answers from ``db.cache.bodies``: its stored result, payload and JSON less ``}``.

        Inside an attempt the lock is only tried."""
        on_loop = attempting()
        try:
            self.lock.acquire_read(
                timeout=0 if on_loop else remaining(deadline))
        except LockTimeout as error:
            if on_loop:
                raise HandOff("a writer holds or awaits the lock") from None
            raise DeadlineExceeded(str(error)) from None
        try:
            remaining(deadline)  # a read that queued past its budget
            generation = self.db.catalog.generation
            with metrics_scope() as metrics, collect() as stats:
                started = time.perf_counter()
                batch = self.db.execute_sql_batch(sqls, options)
                elapsed = round((time.perf_counter() - started) * 1000, 3)
            self.queries += len(sqls)
            stored = batch.items[0].stored if keep else None
            kept = None if stored is None else self.db.cache.bodies.get((*sqls, options))
            if kept is None or kept[0] is not stored:
                payload = {
                    "tenant": self.name, **respond(batch, metrics),
                    "detail_scans": stats.detail_scans,
                    "io": {key: value for key, value in stats.snapshot().items() if value},
                    "metrics": {"counters": {
                        name: counter.value for name, counter in sorted(metrics.counters.items())
                    }},
                }
                if stored is None:
                    return {**payload, "elapsed_ms": elapsed}
                kept = (stored, payload, encode(payload)[:-1])
                self.db.cache.bodies.put((*sqls, options), kept, self.db.catalog, generation)
            return Encoded({**kept[1], "elapsed_ms": elapsed},
                           kept[2] + b', "elapsed_ms": %a}' % elapsed)
        finally:
            self.lock.release_read()

    def run_explain(self, sql: str, options: QueryOptions,
                    analyze: bool = False,
                    deadline: float | None = None) -> dict:
        """EXPLAIN (plan only) or EXPLAIN ANALYZE as JSON, read-locked."""
        try:
            self.lock.acquire_read(timeout=remaining(deadline))
        except LockTimeout as error:
            raise DeadlineExceeded(str(error)) from None
        try:
            remaining(deadline)
            query = self.db.sql(sql)
            if not analyze:
                return {
                    "tenant": self.name,
                    "plan": self.db.explain(query, options),
                }
            from repro.obs.explain import explain_analyze_json

            with metrics_scope():
                payload = explain_analyze_json(self.db, query, options)
            payload["tenant"] = self.name
            return payload
        finally:
            self.lock.release_read()

    def run_ddl(self, statement: dict,
                deadline: float | None = None) -> dict:
        """Apply one mutation under the exclusive write lock."""
        try:
            self.lock.acquire_write(timeout=remaining(deadline))
        except LockTimeout as error:
            raise DeadlineExceeded(str(error)) from None
        try:
            remaining(deadline)
            payload = apply_ddl(self.db, statement)
            self.ddl += 1
            payload["tenant"] = self.name
            return payload
        finally:
            self.lock.release_write()

    # -- introspection -------------------------------------------------------

    def stats(self) -> dict:
        return {
            "tables": sorted(self.db.catalog.table_names()),
            "queries": self.queries,
            "ddl": self.ddl,
            "cache": self.db.cache.stats(),
            "fronts": {"entries": len(self.db.cache.fronts), **self.db.cache.fronts.counts},
            "rollups": self.db.rollups.stats(),
            "lock": self.lock.snapshot(),
        }


def _columns(spec) -> list[tuple[str, DataType]]:
    """Parse ``[["K", "integer"], ...]`` column declarations."""
    if not isinstance(spec, list) or not spec:
        raise ConfigurationError("columns must be a non-empty list")
    columns = []
    for item in spec:
        if (not isinstance(item, (list, tuple)) or len(item) != 2
                or not isinstance(item[0], str)):
            raise ConfigurationError(
                "each column must be a [name, type] pair"
            )
        name, dtype = item
        try:
            columns.append((name, DataType(str(dtype).lower())))
        except ValueError:
            raise ConfigurationError(
                f"unknown column type {dtype!r}; choose one of "
                f"{[d.value for d in DataType]}"
            ) from None
    return columns


def _rows(spec) -> list[tuple]:
    """Parse ``[[1, "a"], ...]``: a list whose every row is an array, so
    a string or an object is never spread into a row."""
    if spec is None:
        return []
    if not isinstance(spec, list) or not all(
            isinstance(row, list) for row in spec):
        raise ConfigurationError("rows must be a list of row arrays")
    return [tuple(row) for row in spec]


def apply_ddl(db: Database, statement) -> dict:
    """Execute one ``/ddl`` statement; returns its result payload.

    Supported ops: ``create_table`` (name, columns, rows?), ``insert``
    (name, rows), ``create_index`` (table, attribute), ``drop_indexes``
    (table?), ``drop_table`` (name).
    """
    if not isinstance(statement, dict):
        raise ConfigurationError("ddl statement must be a JSON object")
    op = statement.get("op")
    if op == "create_table":
        name = _required(statement, "name")
        relation = db.create_table(
            name, _columns(statement.get("columns")),
            _rows(statement.get("rows")),
        )
        return {"op": op, "table": name, "row_count": len(relation)}
    if op == "insert":
        name = _required(statement, "name")
        rows = _rows(statement.get("rows"))
        if not rows:
            raise ConfigurationError("insert needs a non-empty rows list")
        relation = db.insert(name, rows)
        return {"op": op, "table": name, "inserted": len(rows),
                "row_count": len(relation)}
    if op == "create_index":
        table = _required(statement, "table")
        attribute = _required(statement, "attribute")
        db.create_index(table, attribute)
        return {"op": op, "table": table, "attribute": attribute}
    if op == "drop_indexes":
        dropped = db.drop_indexes(statement.get("table"))
        return {"op": op, "dropped": dropped}
    if op == "drop_table":
        name = _required(statement, "name")
        db.drop_table(name)
        return {"op": op, "table": name}
    raise ConfigurationError(
        f"unknown ddl op {op!r}; choose one of create_table, insert, "
        f"create_index, drop_indexes, drop_table"
    )


def _required(statement: dict, key: str) -> str:
    value = statement.get(key)
    if not isinstance(value, str) or not value:
        raise ConfigurationError(f"ddl statement needs a string {key!r}")
    return value


class TenantRegistry:
    """Get-or-create tenants by name, bounded by ``max_tenants``.

    Tenants never expire, so a request that fails must not keep a
    tenant it created: such a tenant is *provisional* — held by a count
    of the requests on it — until one of them succeeds, and goes again
    when the last of them has failed (:meth:`holding`).
    """

    def __init__(self, max_tenants: int = 16, cache_size: int = 128):
        if max_tenants < 1:
            raise ConfigurationError(
                f"max_tenants must be >= 1, got {max_tenants}"
            )
        self.max_tenants = max_tenants
        self.cache_size = cache_size
        self._tenants: dict[str, Tenant] = {}
        #: Provisional tenant name -> requests holding it.
        self._provisional: dict[str, int] = {}
        self._lock = threading.Lock()

    def _lookup(self, name: str) -> tuple[Tenant, bool]:
        """The tenant and whether it was created now (callers hold
        ``_lock``)."""
        tenant = self._tenants.get(name)
        if tenant is not None:
            return tenant, False
        if len(self._tenants) >= self.max_tenants:
            raise TenantLimitError(
                f"tenant limit reached ({self.max_tenants}); "
                f"not creating {name!r}"
            )
        tenant = self._tenants[name] = Tenant(
            name=name, db=Database(cache_size=self.cache_size)
        )
        return tenant, True

    def get(self, name: str) -> Tenant:
        """The tenant, created on first reference."""
        tenant_name(name)
        with self._lock:
            return self._lookup(name)[0]

    @contextmanager
    def holding(self, name: str) -> Iterator[Tenant]:
        """The tenant for the span of one request, created on first
        reference; one created here stays only if a request on it
        succeeds."""
        tenant_name(name)
        with self._lock:
            tenant, created = self._lookup(name)
            if created:
                self._provisional[name] = 0
            if name in self._provisional:
                self._provisional[name] += 1
        succeeded = False
        try:
            yield tenant
            succeeded = True
        finally:
            with self._lock:
                if name in self._provisional:
                    self._provisional[name] -= 1
                    if succeeded:
                        del self._provisional[name]
                    elif not self._provisional[name]:
                        del self._provisional[name]
                        del self._tenants[name]

    def adopt(self, name: str, db: Database) -> Tenant:
        """Install a pre-built database (the CLI's ``--data`` tenant)."""
        with self._lock:
            tenant = self._tenants[name] = Tenant(name=name, db=db)
            return tenant

    def items(self) -> list[tuple[str, Tenant]]:
        with self._lock:
            return sorted(self._tenants.items())

    def __len__(self) -> int:
        with self._lock:
            return len(self._tenants)

    def close_all(self) -> None:
        """Quiesce and close every tenant database (drain's last step)."""
        for _, tenant in self.items():
            with tenant.lock.write():
                tenant.db.close()
