"""The front map: a warm read does not parse, and a served hit does not
encode its rows.

A run that asks for a tier (``use_cache``, or ``rollup="subsume"``)
takes its SQL text through ``db.cache.fronts`` to the bound query and
its result-map key (or, with the translation map off, its plan); a run
that asks for none tokenizes, parses, binds and translates every time.
``repro serve`` answers a ``/query`` result-cache hit from the JSON body
kept beside the stored result (``db.cache.bodies``), with only
``elapsed_ms`` patched in.  The front map holds schemas' consequences
only, never rows, which is why an insert may keep it.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro.engine.planner as planner
import repro.sql
from perfbench import data as perfdata
from perfbench import queries as perfqueries
from repro import Database, DataType, QueryOptions, Relation
from repro.algebra.operators import ScanTable, TableValue
from repro.algebra.rewrite import transform_bottom_up
from repro.engine.cache import PlanCache
from repro.fuzz.datagen import DatabaseSpec
from repro.serve.http import encode, json_response
from repro.serve.state import Tenant
from repro.storage.attempt import HandOff, attempt

SQL = ("SELECT b.K FROM B b WHERE EXISTS "
       "(SELECT * FROM R r WHERE r.K = b.K AND r.V > 1)")
#: Figure 3's shape: a plain GMDJ the rollup store keeps.
AVG = ("SELECT b.K FROM B b WHERE b.X > "
       "(SELECT AVG(r.V) FROM R r WHERE r.K = b.K)")
CACHE = QueryOptions()
ROLLUP = QueryOptions(use_cache=False, rollup="subsume")
COLD = QueryOptions(use_cache=False)


def make_db() -> Database:
    db = Database()
    db.create_table("B", [("K", DataType.INTEGER), ("X", DataType.INTEGER)],
                    [(1, 5), (2, 9), (3, 1), (4, 7)])
    db.create_table("R", [("K", DataType.INTEGER), ("V", DataType.INTEGER)],
                    [(1, 2), (1, 8), (2, 3), (4, 0)])
    return db


def refuse(name):
    def refused(*args, **kwargs):
        raise AssertionError(f"{name} called on a warm read")
    return refused


def counting(calls, name, function):
    def counted(*args, **kwargs):
        calls[name] += 1
        return function(*args, **kwargs)
    return counted


class TestWarmReads:
    def test_a_cache_hit_neither_parses_nor_renders_its_key(self, monkeypatch):
        db = make_db()
        expected = db.execute_sql(SQL, CACHE).rows
        monkeypatch.setattr(repro.sql, "compile_sql", refuse("compile_sql"))
        monkeypatch.setattr(PlanCache, "plan_key", refuse("plan_key"))
        assert db.execute_sql(SQL, CACHE).rows == expected
        stats = db.cache.stats()
        assert (stats["result_hits"], db.cache.fronts.counts) == (
            1, {"front_hits": 1, "front_misses": 1})

    def test_a_rollup_hit_neither_parses_nor_translates(self, monkeypatch):
        db = make_db()
        expected = db.execute_sql(AVG, COLD).rows
        assert db.execute_sql(AVG, ROLLUP).rows == expected
        monkeypatch.setattr(repro.sql, "compile_sql", refuse("compile_sql"))
        monkeypatch.setattr(planner, "subquery_to_gmdj",
                            refuse("subquery_to_gmdj"))
        for _ in range(2):
            assert db.execute_sql(AVG, ROLLUP).rows == expected
        assert db.rollups.stats()["exact_hits"] == 2
        for _ in range(2):  # a share group's members are planned already
            assert db.execute_sql_batch([AVG, AVG], ROLLUP)[1].rows == expected

    def test_a_run_asking_for_no_tier_stays_cold(self, monkeypatch):
        # Every op of a cold run (perfbench's in-process profile) parses,
        # binds and translates its text once, and keeps nothing.
        calls = {"compile_sql": 0, "subquery_to_gmdj": 0}
        monkeypatch.setattr(repro.sql, "compile_sql", counting(
            calls, "compile_sql", repro.sql.compile_sql))
        monkeypatch.setattr(planner, "subquery_to_gmdj", counting(
            calls, "subquery_to_gmdj", planner.subquery_to_gmdj))
        db = make_db()
        for _ in range(3):
            db.execute_sql(SQL, COLD)
            db.execute_sql(AVG, COLD)
        db.execute_sql_batch([SQL, AVG], COLD)
        assert calls == {"compile_sql": 8, "subquery_to_gmdj": 8}
        assert len(db.cache.fronts) == 0
        assert db.cache.fronts.counts == {"front_hits": 0, "front_misses": 0}

    def test_options_key_their_own_entries(self):
        db = make_db()
        db.execute_sql(AVG, CACHE)
        db.execute_sql(AVG, ROLLUP)
        db.execute_sql(AVG, QueryOptions(strategy="gmdj"))
        assert len(db.cache.fronts) == 3
        (_, cached), (_, rolled), _ = db.cache.fronts.matching(lambda key: True)
        assert cached.key is not None and cached.plan is None
        assert rolled.key is None and rolled.plan is not None

    def test_a_handed_off_attempt_keeps_no_front_entry(self):
        # The attempt's put is taken back with its count, as every
        # DerivedMap put is: the worker binds the text again and counts
        # the request's one front probe.
        db = make_db()
        with pytest.raises(HandOff), attempt():
            db.execute_sql(SQL, CACHE)
        assert len(db.cache.fronts) == 0
        assert db.cache.fronts.counts == {"front_hits": 0, "front_misses": 0}
        db.execute_sql(SQL, CACHE)
        assert db.cache.fronts.counts == {"front_hits": 0, "front_misses": 1}


# -- what the front map holds --------------------------------------------------

def stored_values(value) -> list:
    """Every ``Relation`` and ``TableValue`` reachable from ``value``
    through repro objects' fields and the containers they hold."""
    found, seen, stack = [], set(), [value]
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, (Relation, TableValue)):
            found.append(item)
        elif isinstance(item, dict):
            stack.extend([*item.keys(), *item.values()])
        elif isinstance(item, (list, tuple, set, frozenset)):
            stack.extend(item)
        elif type(item).__module__.startswith("repro.") and not isinstance(
                item, type):
            fields = getattr(item, "__dict__", {})
            stack.extend(fields.values())
            for klass in type(item).__mro__:
                for slot in getattr(klass, "__slots__", ()):
                    stack.append(getattr(item, slot, None))
    return found


CORPUS = sorted((Path(__file__).parent / "corpus").glob("*.json"))


def corpus_database(path: Path) -> tuple[Database, str]:
    case = json.loads(path.read_text())
    catalog = DatabaseSpec.from_json(case["tables"]).build_catalog()
    db = Database()
    for name in catalog.table_names():
        db.register(name, catalog.table(name))
    return db, case["sql"]


def serve_database() -> tuple[Database, list[str]]:
    db = Database()
    for table in (perfdata.customer(40, 1), perfdata.orders(400, 80, 1)):
        db.create_table(table.name, [(name, DataType(kind))
                                     for name, kind in table.columns],
                        table.rows)
    texts = [perfqueries.fig2_exists().sql, perfqueries.fig5_two_exists().sql,
             *(perfqueries.fig3_avg(factor).sql for factor in (30, 40))]
    return db, texts


def bound_under_every_tier(db: Database, texts: list[str]) -> list:
    for options in (CACHE, ROLLUP, QueryOptions(strategy="gmdj", rollup="subsume"),
                    QueryOptions(strategy="native")):
        for text in texts:
            db.execute_sql(text, options)
            db.execute_sql(text, options)  # a hit, and for the rollup a store
    entries = db.cache.fronts.matching(lambda key: True)
    assert len(entries) == 4 * len(texts)
    return entries


class TestBoundQueriesCarryNoRows:
    """An insert keeps the front map only because nothing in it was
    derived from rows: no bound query or plan holds a stored value."""

    @pytest.mark.parametrize("path", CORPUS, ids=lambda path: path.stem)
    def test_corpus(self, path):
        db, text = corpus_database(path)
        for key, front in bound_under_every_tier(db, [text]):
            assert stored_values(front) == [], (path.stem, key)

    def test_serve_texts(self):
        db, texts = serve_database()
        for key, front in bound_under_every_tier(db, texts):
            assert stored_values(front) == [], key

    def test_a_folded_value_would_be_found(self):
        # The walk above sees a stored value wherever binding put one.
        db, texts = serve_database()
        (_, front), *_ = bound_under_every_tier(db, texts[:1])
        customer = db.table("customer")
        folded = transform_bottom_up(front.query, lambda node: TableValue(
            customer, "c") if isinstance(node, ScanTable) else node)
        assert stored_values(front._replace(query=folded)) == [
            TableValue(customer, "c")]
        assert stored_values(front._replace(plan=[customer])) == [customer]


# -- the kept body ---------------------------------------------------------------

def body_of(payload) -> dict:
    _, _, body = json_response(200, payload).partition(b"\r\n\r\n")
    return json.loads(body)


class TestKeptBody:
    def test_a_served_hit_does_not_encode_its_rows(self, monkeypatch):
        tenant = Tenant(name="t", db=make_db())
        assert tenant.run_query(SQL, CACHE)["served_by"] == "execute"
        first = body_of(tenant.run_query(SQL, CACHE))
        assert first.pop("elapsed_ms") >= 0 and first["served_by"] == "cache"
        dumps = json.dumps

        def no_rows(value, *args, **kwargs):
            assert not (isinstance(value, dict) and "rows" in value), value
            return dumps(value, *args, **kwargs)

        monkeypatch.setattr(json, "dumps", no_rows)
        for _ in range(3):
            payload = tenant.run_query(SQL, CACHE)
            again = body_of(payload)
            assert again.pop("elapsed_ms") == payload["elapsed_ms"]
            assert again == first
            assert dict(payload) == {**first, "elapsed_ms": payload["elapsed_ms"]}
        assert len(tenant.db.cache.bodies) == 1

    def test_a_body_is_served_only_for_the_entry_it_encodes(self):
        tenant = Tenant(name="t", db=make_db())
        for _ in range(2):
            tenant.run_query(SQL, CACHE)
        assert sorted(body_of(tenant.run_query(SQL, CACHE))["rows"]) == [[1], [2]]
        tenant.run_ddl({"op": "insert", "name": "R", "rows": [[3, 4]]})
        after = body_of(tenant.run_query(SQL, CACHE))
        assert after["served_by"] == "execute"
        assert sorted(after["rows"]) == [[1], [2], [3]]
        hit = body_of(tenant.run_query(SQL, CACHE))
        assert (hit["served_by"], sorted(hit["rows"])) == ("cache", [[1], [2], [3]])
        # The old entry's body is never served again: its stored result
        # is no longer the result map's, and the new body replaced it.
        ((_, (stored, _, _)),) = tenant.db.cache.bodies.matching(lambda key: True)
        ((_, current),) = tenant.db.cache.results.matching(lambda key: True)
        assert stored is current

    def test_a_kept_body_is_the_payload_it_patches(self):
        tenant = Tenant(name="t", db=make_db())
        for _ in range(2):
            tenant.run_query(SQL, CACHE)
        payload = tenant.run_query(SQL, CACHE)
        assert json.loads(encode(payload)) == dict(payload)
