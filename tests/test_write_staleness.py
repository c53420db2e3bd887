"""No serving tier answers from before a write.

An insert extends the table's encoding, carries its indexes, keeps every
translation and drops every cached result and rollup.  Each of those is
a way to serve rows the database no longer holds, so this differential
interleaves inserts — into the base table, the detail table and a table
no query reads — with queries drawn at the physical lattice's points
(``tests/test_physical_lattice.py``: strategy × kernel × fragmenter)
plus result cache on/off and rollup off/subsume, and compares every
answer, rows *and order*, with a database rebuilt from scratch out of
the rows inserted so far and asked with everything off.

A write can also land *during* a read, after the read resolved its
tables and before it stores its answer: that answer, rollup or
translation must not be kept.

The array kernel's join index — the hash key structure it keeps on the
detail table's encoding for the next scan over the same two tables — is
one more such state: after every kind of write to either side the next
query must build it afresh (and return the row kernel's rows), the one
after that reuse it, and base-side writes must not pile indexes up on
the detail encoding.  Its range index — the sorted detail rows a ``<>``
scan block is answered from — reads the detail side alone: a write to
the detail table rebuilds it, a write to the base table keeps it.
"""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Database, DataType, QueryOptions, Relation
from repro.obs.tracer import tracing
from repro.storage import save_binary
from repro.storage.columnar import cached_columnar
from tests.test_physical_lattice import CASES, FRAGMENTERS, KERNELS

#: NULL-heavy like the lattice's data, but *sensitive*: half the base
#: keys have no detail row yet and X is of Y's size, so almost any
#: inserted row changes some case's answer.
B_ROWS = [(0, 3), (1, 0), (2, None), (3, 5), (4, 2), (None, 4), (5, 6),
          (2, 1)]
R_ROWS = [(1, 5), (1, None), (2, 2), (None, 1), (2, 7), (None, None)]

SCHEMAS = {
    "B": [("K", DataType.INTEGER), ("X", DataType.INTEGER)],
    "R": [("K", DataType.INTEGER), ("Y", DataType.INTEGER)],
    "S": [("K", DataType.INTEGER), ("Y", DataType.INTEGER)],  # never read
}
#: One case per serving shape: a fused completion plan (never a rollup),
#: plain GMDJ nodes the store takes, and the ``<>`` completion query.
QUERIES = ("exists", "agg_avg", "agg_count", "fig4_all")
#: Pooled fragments add threads, not another way to go stale.
POINTS = [name for name in FRAGMENTERS if name != "partitioned-w2"]

small = st.one_of(st.none(), st.integers(0, 6))
inserts = st.tuples(st.sampled_from(sorted(SCHEMAS)),
                    st.lists(st.tuples(small, small), min_size=1,
                             max_size=3))
queries = st.tuples(
    st.sampled_from(QUERIES),
    st.sampled_from(["gmdj", "gmdj_optimized", "native", "unnest_join"]),
    st.sampled_from(KERNELS), st.sampled_from(POINTS), st.booleans(),
    st.sampled_from(["off", "subsume"]))


def build(contents) -> Database:
    db = Database()
    for name, rows in contents.items():
        db.create_table(name, SCHEMAS[name], rows)
    db.create_index("R", "K")
    return db


def options_for(strategy, kernel, point, use_cache, rollup) -> QueryOptions:
    if strategy in ("native", "unnest_join"):  # no physical knobs there
        return QueryOptions(strategy=strategy, use_cache=use_cache)
    return QueryOptions(strategy=strategy, backend=kernel,
                        use_cache=use_cache, rollup=rollup,
                        **FRAGMENTERS[point])


def check(live, rebuilt, point, contents):
    case, strategy, *physical = point
    reference = QueryOptions(
        strategy=strategy, use_cache=False,
        **({} if strategy in ("native", "unnest_join")
           else {"backend": "row", "rollup": "off"}))
    expected = rebuilt.execute(CASES[case], reference)
    served = live.execute(CASES[case], options_for(strategy, *physical))
    assert served.rows == expected.rows, (point, contents)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(points=st.lists(queries, min_size=1, max_size=3),
       writes=st.lists(inserts, min_size=1, max_size=4))
def test_every_answer_is_the_rebuilt_databases_answer(points, writes):
    contents = {"B": list(B_ROWS), "R": list(R_ROWS), "S": [(1, 1)]}
    live = build(contents)
    rebuilt = build(contents)
    for table, rows in writes + [(None, None)]:
        # Every point twice — the first run fills its tiers (encoding,
        # result cache, rollup store), the second is served from them —
        # so each write lands on warm state and is followed by a read.
        for point in points + points:
            check(live, rebuilt, point, contents)
        if table is None:
            break
        live.insert(table, rows)
        contents[table] = contents[table] + rows
        rebuilt = build(contents)
    assert live.catalog.indexed_attributes("R") == {"K"}


#: The join index's data: R key 3 has no base tuple yet, base key 4 no
#: detail row, and each side holds a NULL key.
JOIN_B = [(1, 0), (2, 1), (None, 2), (4, 3)]
JOIN_R = [(1, 5), (3, 2), (1, 0), (None, 7), (2, 3), (3, 9)]
#: Two shapes over the one key pair B.K = R.K: the Figure 2 completion
#: scan and an unfused COUNT comparison.
JOIN_QUERIES = (
    "SELECT b.K, b.X FROM B b WHERE EXISTS "
    "(SELECT * FROM R r WHERE r.K = b.K AND r.Y > 2)",
    "SELECT b.K FROM B b WHERE b.X < "
    "(SELECT COUNT(*) FROM R r WHERE r.K = b.K)",
)


def _reload(name, rows):
    def write(db, directory):
        path = save_binary(Relation.from_columns(SCHEMAS[name], rows),
                           directory / f"{name}.cols")
        db.drop_table(name)
        db.load_binary(name, path)
    return write


def _recreate(name, rows):
    def write(db, directory):
        db.drop_table(name)
        db.create_table(name, SCHEMAS[name], rows)
    return write


JOIN_WRITES = {
    "R insert, existing key": lambda db, _: db.insert("R", [(1, 6)]),
    "R insert, new key": lambda db, _: db.insert("R", [(8, 6)]),
    "R insert, NULL key": lambda db, _: db.insert("R", [(None, 6)]),
    "B insert, key R rows match": lambda db, _: db.insert("B", [(3, 0)]),
    "B insert, duplicate key": lambda db, _: db.insert("B", [(1, -1)]),
    "R create_table": _recreate("R", JOIN_R + [(4, 8)]),
    "B create_table": _recreate("B", JOIN_B + [(3, 1)]),
    "R load_binary": _reload("R", JOIN_R[1:]),
    "B load_binary": _reload("B", JOIN_B[::-1]),
}


def join_index_of(db, sql):
    """The numpy run's ``join_index``, its rows held to the row kernel's."""
    expected = db.execute_sql(
        sql, QueryOptions(backend="row", use_cache=False)).rows
    with tracing() as tracer:
        rows = db.execute_sql(
            sql, QueryOptions(backend="numpy", use_cache=False)).rows
    assert rows == expected
    (scan,) = tracer.trace().find(kind="detail_scan")
    return scan.attrs["join_index"]


@pytest.mark.parametrize("write", list(JOIN_WRITES))
def test_a_write_on_either_side_rebuilds_the_join_index(write, tmp_path):
    db = build({"B": JOIN_B, "R": JOIN_R})
    assert [join_index_of(db, sql) for sql in JOIN_QUERIES] \
        == [("built",), ("reused",)]
    JOIN_WRITES[write](db, tmp_path)
    assert [join_index_of(db, sql) for sql in JOIN_QUERIES] \
        == [("built",), ("reused",)]


def test_base_inserts_leave_at_most_the_bound_on_the_detail_encoding():
    from repro.gmdj.npkernel import JOIN_INDEXES_KEPT

    db = build({"B": JOIN_B, "R": JOIN_R})
    for k in range(JOIN_INDEXES_KEPT + 2):
        db.insert("B", [(k, k)])
        assert join_index_of(db, JOIN_QUERIES[0]) == ("built",)
        assert join_index_of(db, JOIN_QUERIES[1]) == ("reused",)
    kept = cached_columnar(db.table("R"))._join_indexes
    assert len(kept) == JOIN_INDEXES_KEPT


#: Figure 4's two shapes over B.K <> R.K: ALL (a pair of range-form
#: blocks plus its doom index) and the NOT EXISTS twin.
RANGE_QUERIES = (
    "SELECT b.K FROM B b WHERE b.X >= ALL "
    "(SELECT r.Y FROM R r WHERE r.K <> b.K)",
    "SELECT b.K FROM B b WHERE NOT EXISTS "
    "(SELECT * FROM R r WHERE r.K <> b.K AND r.Y > b.X)",
)


def range_index_of(db, sql):
    """The numpy run's ``range_index`` states, its rows held to the row
    kernel's."""
    expected = db.execute_sql(
        sql, QueryOptions(backend="row", use_cache=False)).rows
    with tracing() as tracer:
        rows = db.execute_sql(
            sql, QueryOptions(backend="numpy", use_cache=False)).rows
    assert rows == expected
    (scan,) = tracer.trace().find(kind="detail_scan")
    assert set(scan.attrs["forms"]) == {"range"}, scan.attrs
    return set(scan.attrs["range_index"])


@pytest.mark.parametrize("write", list(JOIN_WRITES))
def test_only_a_write_on_the_detail_side_rebuilds_the_range_index(
        write, tmp_path):
    # The range index reads detail columns only: a base-side write keeps
    # it, any write to R makes a new encoding that holds none.
    db = build({"B": JOIN_B, "R": JOIN_R})
    assert [range_index_of(db, sql) for sql in RANGE_QUERIES * 2] \
        == [{"built"}] * 2 + [{"reused"}] * 2
    JOIN_WRITES[write](db, tmp_path)
    after = "built" if write.startswith("R ") else "reused"
    assert [range_index_of(db, sql) for sql in RANGE_QUERIES * 2] \
        == [{after}] * 2 + [{"reused"}] * 2


def test_an_insert_into_an_unread_table_still_clears_results_and_rollups():
    live = build({"B": list(B_ROWS), "R": list(R_ROWS), "S": [(1, 1)]})
    warm = QueryOptions(strategy="gmdj", rollup="subsume")
    expected = live.execute(CASES["agg_avg"], warm).rows
    assert live.cache.stats()["results"] >= 1 and len(live.rollups) >= 1
    stats = live.cache.stats()
    translations = (stats["translations"], stats["translation_hits"])
    live.insert("S", [(2, 2)])
    stats = live.cache.stats()
    assert stats["results"] == len(live.rollups) == 0
    assert (stats["translations"], stats["translation_hits"]) == translations
    assert live.execute(CASES["agg_avg"], warm).rows == expected
    assert live.cache.stats()["translation_hits"] == translations[1] + 1


def land_inside(monkeypatch, owner, method, write):
    """Run ``write`` once, inside the first call of ``owner.method``: the
    read has computed what it is about to keep, and the write lands."""
    real = getattr(owner, method)
    pending = [write]

    def storing(*args):
        while pending:
            pending.pop()()
        return real(*args)

    monkeypatch.setattr(owner, method, storing)


FLAT = "SELECT K FROM T WHERE K > 0"
#: Figure 3's shape: a plain GMDJ under an aggregate comparison, which
#: the rollup store keeps.
AVG = ("SELECT b.K FROM B b WHERE b.X > "
       "(SELECT AVG(r.Y) FROM R r WHERE r.K = b.K)")


@pytest.mark.parametrize("write, rows", [
    (lambda db: db.insert("T", [(3,)]), 3),
    (lambda db: db.register("T", Relation.from_columns(
        [("K", DataType.INTEGER)], [(5,)])), 1),
], ids=["insert", "register"])
def test_a_write_during_a_read_keeps_no_result(monkeypatch, write, rows):
    db = Database()
    db.create_table("T", [("K", DataType.INTEGER)], [(1,), (2,)])
    land_inside(monkeypatch, db.cache.results, "put", lambda: write(db))
    assert len(db.execute_sql(FLAT)) == 2  # the read's own snapshot
    assert len(db.execute_sql(FLAT, QueryOptions(use_cache=False))) == rows
    assert len(db.execute_sql(FLAT)) == rows


def test_a_read_right_after_a_writes_clearing_sees_the_write(monkeypatch):
    # A write changes the catalog before it clears the caches: a read
    # that starts after the clearing must not store the old contents.
    db = Database()
    db.create_table("T", [("K", DataType.INTEGER)], [(1,), (2,)])
    clear = db.cache.invalidate

    def clear_then_read():
        clear()
        db.execute_sql(FLAT)

    monkeypatch.setattr(db.cache, "invalidate", clear_then_read)
    db.register("T", Relation.from_columns([("K", DataType.INTEGER)], [(5,)]))
    assert db.execute_sql(FLAT).rows == [(5,)]


def test_an_insert_during_a_read_keeps_no_rollup(monkeypatch):
    db = build({"B": [(1, 5), (2, 5)], "R": [(1, 9), (2, 1)]})
    warm = QueryOptions(rollup="subsume", use_cache=False)
    land_inside(monkeypatch, db.rollups, "store",
                lambda: db.insert("R", [(1, 0)]))
    assert db.execute_sql(AVG, warm).rows == [(2,)]
    assert db.execute_sql(AVG, warm).rows == [(1,), (2,)]
    assert db.rollups.stats()["exact_hits"] == 0


def test_a_register_during_a_translation_keeps_no_translation(monkeypatch):
    db = build({"B": [(1, 5), (2, 5)], "R": [(1, 9), (2, 1)]})
    land_inside(monkeypatch, db.cache.translations, "put",
                lambda: db.register("R", db.table("R").copy()))
    db.execute_sql(AVG)
    assert db.cache.stats()["translations"] == 0


def test_threaded_reads_racing_inserts_leave_nothing_stale():
    # Readers go straight to the database — no reader-writer lock around
    # them — so only the generation check keeps a read that straddles an
    # insert from storing its answer.
    db = build({"B": list(B_ROWS), "R": list(R_ROWS)})
    warm = QueryOptions(strategy="gmdj", rollup="subsume")
    cases = [CASES["agg_count"], CASES["agg_avg"]]
    stop = threading.Event()
    failures: list = []

    def reader():
        try:
            while not stop.is_set():
                for case in cases:
                    db.execute(case, warm)
        except Exception as error:  # pragma: no cover - diagnostics
            failures.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for key in range(12):
            db.insert("R", [(key % 6, key)])
        stop.set()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not failures, failures
    assert not any(thread.is_alive() for thread in threads)
    cold = QueryOptions(strategy="gmdj", backend="row", use_cache=False)
    rollup_only = QueryOptions(strategy="gmdj", rollup="subsume",
                               use_cache=False)
    for case in cases:
        expected = db.execute(case, cold).rows
        assert db.execute(case, warm).rows == expected
        assert db.execute(case, rollup_only).rows == expected
