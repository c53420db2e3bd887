"""Database lifecycle: deterministic teardown and copy-on-write inserts.

The serving tier keeps Databases alive across many requests, which is
what turns executor cleanup from a non-issue (per-call pools) into a
real leak class.  ``Database.close()`` / the context-manager protocol
are the deterministic teardown path: they shut down the database's
pooled GMDJ executors, empty its caches, and fail every later call
loudly with :class:`DatabaseClosedError` instead of half-working over
released workers.

``insert`` is the serving tier's only row-level mutation, so its
copy-on-write contract is pinned here too: in-flight readers holding
the old relation keep a consistent snapshot while the catalog moves on.
"""

from __future__ import annotations

import pytest

from repro import Database, DataType, QueryOptions
from repro.engine.database import DatabaseClosedError
from repro.errors import ConfigurationError

SQL = ("SELECT K FROM B b WHERE EXISTS "
       "(SELECT * FROM R r WHERE r.K = b.K)")


def make_db(r_rows=((1,),)) -> Database:
    db = Database()
    db.create_table("B", [("K", DataType.INTEGER)],
                    [(i,) for i in range(4)])
    db.create_table("R", [("K", DataType.INTEGER)], list(r_rows))
    return db


class TestClose:
    def test_close_is_idempotent(self):
        db = make_db()
        assert not db.closed
        db.close()
        db.close()
        assert db.closed

    def test_close_shuts_down_pools(self):
        db = make_db()
        db.execute_sql(SQL, QueryOptions(
            strategy="gmdj", partitions=2, workers=2))
        db.close()
        assert db.pools.closed
        with pytest.raises(ConfigurationError):
            db.pools.get("thread", 2)

    def test_close_empties_caches(self):
        db = make_db()
        db.execute_sql(SQL)
        db.execute_sql(SQL, QueryOptions(
            strategy="gmdj", rollup="subsume", use_cache=False))
        assert db.cache.stats()["results"] >= 1
        assert len(db.rollups) >= 1
        db.close()
        assert db.cache.stats()["results"] == 0
        assert len(db.rollups) == 0

    @pytest.mark.parametrize("call", [
        lambda db: db.execute_sql(SQL),
        lambda db: db.create_table("T", [("K", DataType.INTEGER)], []),
        lambda db: db.insert("R", [(9,)]),
        lambda db: db.create_index("R", "K"),
        lambda db: db.drop_table("R"),
        lambda db: db.sql(SQL),
    ])
    def test_use_after_close_raises(self, call):
        db = make_db()
        db.close()
        with pytest.raises(DatabaseClosedError):
            call(db)

    def test_context_manager_closes(self):
        with make_db() as db:
            assert db.execute_sql(SQL).rows == [(1,)]
        assert db.closed
        with pytest.raises(DatabaseClosedError):
            db.execute_sql(SQL)

    def test_context_manager_closes_on_error(self):
        db = make_db()
        with pytest.raises(ValueError):
            with db:
                raise ValueError("boom")
        assert db.closed

    def test_reentering_closed_database_raises(self):
        db = make_db()
        db.close()
        with pytest.raises(DatabaseClosedError):
            with db:
                pass  # pragma: no cover


class TestDropTable:
    def test_closed_tenant_database_rejects_drop_over_ddl(self):
        from repro.serve.state import apply_ddl

        db = make_db()
        db.close()
        with pytest.raises(DatabaseClosedError):
            apply_ddl(db, {"op": "drop_table", "name": "R"})
        assert "R" in db.catalog.table_names()

    def test_drop_and_recreate_serves_no_stale_result_or_rollup(self):
        db = make_db([(1,)])
        warm = QueryOptions(strategy="gmdj", rollup="subsume",
                            use_cache=False)
        assert db.execute_sql(SQL).rows == [(1,)]
        assert db.execute_sql(SQL, warm).rows == [(1,)]
        assert db.cache.stats()["results"] >= 1 and len(db.rollups) == 1
        db.drop_table("R")
        assert db.cache.stats()["results"] == 0 and len(db.rollups) == 0
        db.create_table("R", [("K", DataType.INTEGER)], [(2,), (3,)])
        assert db.execute_sql(SQL).rows == [(2,), (3,)]
        assert db.execute_sql(SQL, warm).rows == [(2,), (3,)]

    def test_drop_unknown_table_raises(self):
        from repro.errors import CatalogError

        with pytest.raises(CatalogError):
            make_db().drop_table("missing")


class TestInsert:
    def test_insert_appends_and_queries_see_it(self):
        db = make_db([(1,)])
        assert db.execute_sql(SQL).rows == [(1,)]
        relation = db.insert("R", [(2,), (3,)])
        assert len(relation) == 3
        assert sorted(db.execute_sql(SQL).rows) == [(1,), (2,), (3,)]

    def test_insert_invalidates_cache_and_rollups(self):
        db = make_db([(1,)])
        db.execute_sql(SQL)
        db.execute_sql(SQL, QueryOptions(
            strategy="gmdj", rollup="subsume", use_cache=False))
        assert len(db.rollups) == 1
        db.insert("R", [(2,)])
        assert db.cache.stats()["results"] == 0
        assert len(db.rollups) == 0

    def test_insert_keeps_translations_and_counts_one_clear(self):
        # An insert clears results and rollups (one table invalidation
        # each, no wholesale one) and drops no translation: a rewrite
        # reads schemas, not rows.
        from repro.obs.metrics import metrics_scope

        db = make_db([(1,)])
        warm = QueryOptions(strategy="gmdj", rollup="subsume",
                            use_cache=False)
        db.execute_sql(SQL)
        db.execute_sql(SQL, warm)
        wholesale = db.cache.stats()["invalidations"]  # the create_tables
        with metrics_scope() as registry:
            db.insert("R", [(3,)])
            counters = {name: counter.value
                        for name, counter in registry.counters.items()}
        assert counters["cache.table_invalidations"] == 1
        assert counters["rollup.table_invalidations"] == 1
        assert "cache.invalidations" not in counters
        assert "rollup.invalidations" not in counters
        for stats in (db.cache.stats(), db.rollups.stats()):
            assert (stats["table_invalidations"],
                    stats["invalidations"]) == (1, wholesale)
        assert db.cache.stats()["translations"] == 1
        misses = db.cache.stats()["translation_misses"]
        assert sorted(db.execute_sql(SQL).rows) == [(1,), (3,)]
        assert sorted(db.execute_sql(SQL, warm).rows) == [(1,), (3,)]
        assert db.cache.stats()["translation_misses"] == misses

    def test_insert_carries_the_indexes(self):
        # replace_table used to drop them silently, turning `native`
        # into `native_noindex` on any table that was ever written.
        from repro.storage import collect

        db = make_db([(1,), (2,), (None,)])
        db.create_index("R", "K")
        db.catalog.create_sorted_index("R", "K")
        old_hash = db.catalog.hash_index("R", ["K"])
        old_sorted = db.catalog.sorted_index("R", "K")
        snapshot = db.table("R")
        db.insert("R", [(3,), (1,), (None,)])
        assert db.catalog.indexed_attributes("R") == {"K"}
        index = db.catalog.hash_index("R", ["K"])
        assert index is not old_hash and index.relation is db.table("R")
        assert index.probe([1]) == [(1,), (1,)] and index.probe([3]) == [(3,)]
        ordered = db.catalog.sorted_index("R", "K")
        assert list(ordered.range()) == [(1,), (1,), (2,), (3,)]
        assert ordered._entries == sorted(
            ordered._entries, key=lambda entry: entry[0])
        # The old pair still answers for the old relation.
        assert old_hash.relation is snapshot and old_hash.probe([3]) == []
        assert old_hash.probe([1]) == [(1,)]
        assert list(old_sorted.range()) == [(1,), (2,)]
        # ... and the extended index equals one built from scratch.
        from repro.storage.index import HashIndex, SortedIndex

        assert index._buckets == HashIndex(db.table("R"), ["K"])._buckets
        assert ordered._entries == SortedIndex(db.table("R"), "K")._entries
        options = QueryOptions(strategy="native", use_cache=False)
        with collect() as stats:
            rows = db.execute_sql(SQL, options).rows
        assert stats.index_probes > 0
        assert rows == db.execute_sql(SQL, QueryOptions(
            strategy="native_noindex", use_cache=False)).rows
        assert sorted(rows) == [(1,), (2,), (3,)]

    def test_insert_is_copy_on_write(self):
        db = make_db([(1,)])
        snapshot = db.catalog.table("R")
        rows_before = list(snapshot.rows)
        db.insert("R", [(2,)])
        # A reader holding the pre-insert relation still sees exactly
        # the rows it started with; the catalog serves the new version.
        assert snapshot.rows == rows_before
        assert db.catalog.table("R") is not snapshot
        assert len(db.catalog.table("R")) == 2

    @pytest.mark.parametrize("use_cache", [True, False])
    @pytest.mark.parametrize("in_place", [True, False])
    def test_returned_result_is_unchanged_by_a_later_insert(
            self, use_cache, in_place):
        # Scan views share the stored row list, so a bare SELECT * is
        # that very list until it leaves the engine — where it must be
        # snapshotted, served from the result cache or not.
        db = make_db([(1,), (2,)])
        options = QueryOptions(use_cache=use_cache)
        first = db.execute_sql("SELECT * FROM R", options)
        again = db.execute_sql("SELECT * FROM R", options)
        assert first.rows is not db.table("R").rows
        if in_place:
            db.table("R").insert((3,))
        else:
            db.insert("R", [(3,)])
        assert first.rows == again.rows == [(1,), (2,)]
        if not in_place or not use_cache:
            # (An in-place Relation.insert bypasses the database, so a
            # cached result legitimately stays as it was.)
            assert db.execute_sql("SELECT * FROM R", options).rows == \
                [(1,), (2,), (3,)]

    def test_scan_views_share_the_stored_rows(self):
        # ... which is the point: no operand is re-listed per query.
        from repro.algebra.operators import ScanTable

        db = make_db([(1,), (2,)])
        stored = db.table("R")
        view = ScanTable("R", "r").evaluate(db.catalog)
        assert view.rows is stored.rows
        assert view.rename("x").rows is stored.rows
        assert stored.copy().rows is not stored.rows

    def test_insert_unknown_table_raises(self):
        db = make_db()
        with pytest.raises(Exception):
            db.insert("missing", [(1,)])
