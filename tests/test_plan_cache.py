"""Tests for the plan/result cache, especially staleness on DDL.

The regression this file pins: a cached result must never be served
after the data it was computed from changed.  Every Database DDL entry
point invalidates, so re-executing after ``register``/``create_table``/
``load_csv``/``create_index``/``drop_indexes`` recomputes.
"""


import pytest

from repro import Database, DataType, QueryOptions, Relation
from repro.algebra.aggregates import AggregateSpec
from repro.algebra.expressions import col, lit
from repro.algebra.operators import ScanTable
from repro.gmdj.operator import md
from repro.storage import save_csv
from repro.storage.attempt import HandOff, attempt

SQL = ("SELECT K FROM B b WHERE EXISTS "
       "(SELECT * FROM R r WHERE r.K = b.K)")


def make_db(r_rows, cache_size: int = 128) -> Database:
    db = Database(cache_size)
    db.create_table("B", [("K", DataType.INTEGER)],
                    [(i,) for i in range(4)])
    db.create_table("R", [("K", DataType.INTEGER)], r_rows)
    return db


class MapKeeper:
    """The translation or result map of a database's :class:`PlanCache`,
    driven by item number: ``keep(i)`` puts ``kept[i]`` for item ``i``
    and ``value(i)`` probes for it."""

    def __init__(self, capacity: int, name: str):
        self.db = make_db([], capacity)
        self.map = getattr(self.db.cache, name)
        self.kept = [object() for _ in range(10)]

    def keep(self, i: int) -> None:
        catalog = self.db.catalog
        self.map.put(i, self.kept[i], catalog, catalog.generation)

    def value(self, i: int):
        return self.map.get(i)

    def served(self, i: int) -> bool:
        return self.value(i) is not None

    def stats(self) -> dict:
        return self.db.cache.stats()


class RollupKeeper:
    """A :class:`RollupStore` driven the same way: item ``i`` is the GMDJ
    ``MD(B, R, count, r.K = b.K AND r.K > i)``, stored with its output;
    ``refined`` adds the base-only conjunct ``b.K > 0``, which only the
    subsume tier of item ``i``'s entry can answer."""

    def __init__(self, capacity: int):
        self.db = make_db([(k,) for k in range(6)], capacity)
        self.store = self.db.rollups
        self.map = self.store.entries
        # Evaluated up front: inside an attempt a scan hands off.
        self.outputs = [self.db.execute(self.node(i), ROLLUP_OFF)
                        for i in range(10)]
        self.kept = [output.rows for output in self.outputs]

    def node(self, i: int, refined: bool = False):
        theta = (col("r.K") == col("b.K")) & (col("r.K") > lit(i))
        if refined:
            theta = theta & (col("b.K") > lit(0))
        return md(ScanTable("B", "b"), ScanTable("R", "r"),
                  [[AggregateSpec("count", None, "c")]], [theta])

    def keep(self, i: int) -> None:
        catalog = self.db.catalog
        self.store.store(self.node(i), self.outputs[i], catalog,
                         catalog.generation)

    def tier(self, i: int, refined: bool = False) -> str | None:
        served = self.store.probe(self.node(i, refined))
        return None if served is None else served[1]

    def value(self, i: int):
        served = self.store.probe(self.node(i))
        return None if served is None else served[0].rows

    def served(self, i: int) -> bool:
        return self.tier(i) is not None

    def stats(self) -> dict:
        return self.store.stats()


def keepers(capacity: int) -> list:
    """A database's three derived maps, each at ``capacity``."""
    return [MapKeeper(capacity, "translations"),
            MapKeeper(capacity, "results"), RollupKeeper(capacity)]


def order(keeper) -> list:
    """The keys a map holds, least recent first."""
    return [key for key, _ in keeper.map.matching(lambda key: True)]


class TestLRU:
    def test_eviction_order(self):
        for keeper in keepers(capacity=2):
            keeper.keep(0)
            keeper.keep(1)
            assert keeper.served(0)  # refresh: 1 is now least recent
            keeper.keep(2)
            values = [keeper.value(i) for i in range(3)]
            assert values == [keeper.kept[0], None, keeper.kept[2]], keeper

    def test_capacity_bound(self):
        translations, results, rollups = keepers(capacity=3)
        for keeper in (translations, results, rollups):
            for i in range(10):
                keeper.keep(i)
            assert len(keeper.map) == 3
            assert [keeper.served(i) for i in range(10)] == [False] * 7 + [True] * 3
        # An evicted rollup answers neither tier; a kept one answers both.
        assert rollups.tier(9) == "exact" and rollups.tier(9, True) == "subsume"
        assert rollups.tier(0) is None and rollups.tier(0, True) is None

    def test_a_handed_off_put_leaves_the_map_as_it_was(self):
        # A put at capacity evicts the least recent entry, and a put of a
        # kept key replaces it: an attempt that hands off takes back both,
        # each entry back in its place, and the put's counts.
        for keeper in keepers(capacity=2):
            keeper.keep(0)
            keeper.keep(1)
            assert keeper.served(0)
            before = (order(keeper), keeper.stats())
            for i in (2, 1):
                with pytest.raises(HandOff), attempt():
                    keeper.keep(i)
                    raise HandOff("a stored table would be read")
                assert (order(keeper), keeper.stats()) == before, (keeper, i)
            assert keeper.served(1) and keeper.served(0)

    @pytest.mark.parametrize("write", ["insert", "clear"])
    def test_a_handed_off_put_restores_nothing_after_a_write(self, write):
        # A write inside the attempt moves the catalog's generation, clears
        # the map, or both: what the put evicted may be stale by then, so
        # the undo drops the put and restores nothing.
        for keeper in keepers(capacity=2):
            keeper.keep(0)
            keeper.keep(1)
            with pytest.raises(HandOff), attempt():
                keeper.keep(2)  # evicts 0
                if write == "insert":
                    keeper.db.insert("R", [(9,)])
                else:
                    keeper.map.clear()
                raise HandOff("a stored table would be read")
            assert not keeper.served(0) and not keeper.served(2), keeper


class TestResultCache:
    def test_repeat_execute_hits(self):
        db = make_db([(1,), (2,)])
        first = db.execute_sql(SQL)
        second = db.execute_sql(SQL)
        assert first.bag_equal(second)
        assert db.cache.stats()["result_hits"] == 1

    def test_hit_returns_equal_but_independent_relation(self):
        db = make_db([(1,)])
        first = db.execute_sql(SQL)
        first.rows.append((99,))  # a caller scribbling on its result
        second = db.execute_sql(SQL)
        assert second.rows == [(1,)]

    def test_different_options_do_not_collide(self):
        db = make_db([(1,), (3,)])
        a = db.execute_sql(SQL, QueryOptions(strategy="naive"))
        b = db.execute_sql(SQL, QueryOptions(strategy="gmdj"))
        assert db.cache.stats()["result_hits"] == 0
        assert a.bag_equal(b)

    def test_use_cache_false_bypasses(self):
        db = make_db([(1,)])
        db.execute_sql(SQL, QueryOptions(use_cache=False))
        db.execute_sql(SQL, QueryOptions(use_cache=False))
        stats = db.cache.stats()
        assert stats["results"] == 0 and stats["result_hits"] == 0

    def test_profiled_runs_never_serve_cached_results(self):
        db = make_db([(1,)])
        db.execute_sql(SQL)  # populate
        report = db.profile_sql(SQL)
        # A cache hit would measure nothing; counters prove real work ran.
        assert report.counters.get("tuples_scanned", 0) > 0


class TestStaleness:
    def test_register_invalidates(self):
        db = make_db([(1,)])
        assert db.execute_sql(SQL).rows == [(1,)]
        db.register("R", Relation.from_columns(
            [("K", DataType.INTEGER)], [(2,), (3,)], name="R",
        ))
        assert sorted(db.execute_sql(SQL).rows) == [(2,), (3,)]

    def test_create_table_invalidates(self):
        db = make_db([(0,), (1,)])
        assert sorted(db.execute_sql(SQL).rows) == [(0,), (1,)]
        db.catalog.drop_table("R")
        db.create_table("R", [("K", DataType.INTEGER)], [(3,)])
        assert db.execute_sql(SQL).rows == [(3,)]

    def test_load_csv_invalidates(self, tmp_path):
        db = make_db([(1,)])
        db.execute_sql(SQL)
        replacement = Relation.from_columns(
            [("K", DataType.INTEGER)], [(2,)], name="R",
        )
        path = tmp_path / "R.csv"
        save_csv(replacement, path)
        db.catalog.drop_table("R")
        db.load_csv("R", path)
        assert db.execute_sql(SQL).rows == [(2,)]

    def test_index_ddl_invalidates(self):
        db = make_db([(1,)])
        db.execute_sql(SQL)
        db.create_index("R", "K")
        assert db.cache.stats()["results"] == 0
        db.execute_sql(SQL)
        db.drop_indexes("R")
        assert db.cache.stats()["results"] == 0

    def test_invalidation_counter_increments(self):
        db = make_db([(1,)])
        before = db.cache.stats()["invalidations"]
        db.drop_indexes()
        assert db.cache.stats()["invalidations"] == before + 1


class TestTranslationCache:
    def test_translation_reused_across_runs(self):
        db = make_db([(1,), (2,)])
        db.execute_sql(SQL, QueryOptions(strategy="gmdj", use_cache=True))
        hits_before = db.cache.stats()["translation_hits"]
        # Same logical plan, different result-cache key (mode differs):
        # translation is shared, evaluation re-runs.
        db.execute_sql(SQL, QueryOptions(strategy="gmdj", partitions=2))
        assert db.cache.stats()["translation_hits"] > hits_before

    def test_use_cache_false_runs_every_frontend_step_each_time(
            self, monkeypatch):
        # Nothing on the way from SQL text to the plan is kept across
        # runs when the options say not to: each run tokenizes, binds
        # and translates again.
        import repro.engine.planner as planner
        import repro.sql.parser as parser
        from repro.sql.binder import Binder

        calls = {"tokenize": 0, "bind_statement": 0, "subquery_to_gmdj": 0}

        def counting(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(parser, "tokenize",
                            counting("tokenize", parser.tokenize))
        monkeypatch.setattr(Binder, "bind_statement",
                            counting("bind_statement", Binder.bind_statement))
        monkeypatch.setattr(planner, "subquery_to_gmdj",
                            counting("subquery_to_gmdj",
                                     planner.subquery_to_gmdj))
        db = make_db([(1,), (2,)])
        cold = QueryOptions(use_cache=False)
        first = db.execute_sql(SQL, cold)
        second = db.execute_sql(SQL, cold)
        assert first.rows == second.rows == [(1,), (2,)]
        assert calls == {"tokenize": 2, "bind_statement": 2,
                         "subquery_to_gmdj": 2}

    def test_translation_keyed_by_strategy_flags(self):
        db = make_db([(1,)])
        db.execute_sql(SQL, QueryOptions(strategy="gmdj"))
        db.execute_sql(SQL, QueryOptions(strategy="gmdj_optimized"))
        # Distinct flag sets must not alias each other's plans.
        assert db.cache.stats()["translations"] == 2


ROLLUP = QueryOptions(strategy="gmdj", rollup="subsume", use_cache=False)
ROLLUP_OFF = QueryOptions(strategy="gmdj", rollup="off", use_cache=False)


class TestRollupStaleness:
    """Every DDL path must invalidate the semantic rollup store too.

    Unlike the exact-key result cache, a stale rollup can poison *other*
    queries through subsumption matching, so these tests assert both the
    store bookkeeping and the actually-served rows after each mutation
    entry point.
    """

    def test_register_invalidates_rollups(self):
        db = make_db([(1,)])
        assert db.execute_sql(SQL, ROLLUP).rows == [(1,)]
        db.register("R", Relation.from_columns(
            [("K", DataType.INTEGER)], [(2,), (3,)], name="R",
        ))
        assert len(db.rollups) == 0
        assert sorted(db.execute_sql(SQL, ROLLUP).rows) == [(2,), (3,)]

    def test_create_table_invalidates_rollups(self):
        db = make_db([(0,), (1,)])
        assert sorted(db.execute_sql(SQL, ROLLUP).rows) == [(0,), (1,)]
        db.catalog.drop_table("R")
        db.create_table("R", [("K", DataType.INTEGER)], [(3,)])
        assert db.execute_sql(SQL, ROLLUP).rows == [(3,)]

    def test_load_csv_invalidates_rollups(self, tmp_path):
        db = make_db([(1,)])
        db.execute_sql(SQL, ROLLUP)
        replacement = Relation.from_columns(
            [("K", DataType.INTEGER)], [(2,)], name="R",
        )
        path = tmp_path / "R.csv"
        save_csv(replacement, path)
        db.catalog.drop_table("R")
        db.load_csv("R", path)
        assert db.execute_sql(SQL, ROLLUP).rows == [(2,)]

    def test_index_ddl_invalidates_rollups(self):
        db = make_db([(1,)])
        db.execute_sql(SQL, ROLLUP)
        assert len(db.rollups) == 1
        db.create_index("R", "K")
        assert len(db.rollups) == 0
        db.execute_sql(SQL, ROLLUP)
        db.drop_indexes("R")
        assert len(db.rollups) == 0

    def test_invalidation_counter_increments(self):
        db = make_db([(1,)])
        before = db.rollups.stats()["invalidations"]
        db.drop_indexes()
        assert db.rollups.stats()["invalidations"] == before + 1

    def test_seeded_invalidation_bug_is_caught_differentially(
            self, monkeypatch):
        # Seeded bug: DDL no longer clears the rollup store.  The
        # differential discipline (warm serve vs. rollup-off direct
        # evaluation) must expose the stale read — the check the fuzzer's
        # rollup lattice points make, cold then warm.
        db = make_db([(1,)])
        monkeypatch.setattr(db.rollups, "invalidate", lambda: None)
        assert db.execute_sql(SQL, ROLLUP).rows == [(1,)]
        db.register("R", Relation.from_columns(
            [("K", DataType.INTEGER)], [(2,), (3,)], name="R",
        ))
        served = db.execute_sql(SQL, ROLLUP)
        direct = db.execute_sql(SQL, ROLLUP_OFF)
        assert served.rows == [(1,)]          # the stale rollup answered
        assert not served.bag_equal(direct)   # ... and the diff catches it
        assert sorted(direct.rows) == [(2,), (3,)]


class TestRollupDefensiveCopies:
    def test_rollup_hit_returns_independent_relation(self):
        db = make_db([(1,)])
        db.execute_sql(SQL, ROLLUP)
        served = db.execute_sql(SQL, ROLLUP)
        served.rows.append((99,))  # a caller scribbling on its result
        again = db.execute_sql(SQL, ROLLUP)
        assert again.rows == [(1,)]

    def test_store_snapshots_the_result(self):
        db = make_db([(1,)])
        first = db.execute_sql(SQL, ROLLUP)
        first.rows.append((99,))  # mutating the relation that was stored
        assert db.execute_sql(SQL, ROLLUP).rows == [(1,)]


class TestConcurrentDDLStaleness:
    """Concurrent reads racing DDL must never observe a stale or torn
    result through the result cache.

    The race the serve tier's reader-writer lock exists to exclude: a
    reader computes a result from the pre-DDL data, the writer lands and
    invalidates, and the reader then *stores* its stale result — so the
    next reader is served rows that no state of the database ever
    contained together with the DDL.  Running readers and the writer
    through :class:`repro.serve.state.Tenant` (read lock around
    lookup + execute + store, write lock around mutate + invalidate)
    makes every observed result one of the database's committed
    snapshots, in commit order.
    """

    def _race(self, options):
        import threading

        from repro.serve.state import Tenant

        db = make_db([(0,)])
        tenant = Tenant(name="t", db=db)
        # Snapshot i = {0..i}: R starts as [(0,)] and the writer appends
        # (1,), (2,), (3,) one committed insert at a time.
        snapshots = [frozenset({(0,)})]
        stop = threading.Event()
        failures = []
        per_thread = []

        def reader():
            seen = []
            try:
                while not stop.is_set():
                    payload = tenant.run_query(SQL, options)
                    seen.append(frozenset(
                        tuple(row) for row in payload["rows"]))
            except Exception as error:  # pragma: no cover - diagnostics
                failures.append(error)
            per_thread.append(seen)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for key in (1, 2, 3):
            tenant.run_ddl(
                {"op": "insert", "name": "R", "rows": [[key]]})
            snapshots.append(snapshots[-1] | {(key,)})
        stop.set()
        for thread in threads:
            thread.join(60)
        assert not failures, failures

        for seen in per_thread:
            for result in seen:
                # Every served result is a committed snapshot — never a
                # mix of two states, never rows that were rolled past.
                assert result in snapshots, f"torn/stale result {result}"
            # And per reader they appear in commit order: once an insert
            # is visible it can never un-happen.
            indices = [snapshots.index(result) for result in seen]
            assert indices == sorted(indices)

        final = tenant.run_query(SQL, options)
        assert frozenset(tuple(row) for row in final["rows"]) == snapshots[-1]

    def test_cached_reads_racing_inserts(self):
        self._race(QueryOptions(strategy="gmdj", use_cache=True))

    def test_uncached_reads_racing_inserts(self):
        self._race(QueryOptions(strategy="gmdj", use_cache=False))
