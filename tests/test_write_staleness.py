"""No serving tier answers from before a write.

An insert extends the table's encoding, carries its indexes and drops
only the cached results and rollups whose plan reads that table.  Each
of those is a way to serve rows the database no longer holds, so this
differential interleaves inserts — into the base table, the detail
table and a table no query reads — with queries drawn at the physical
lattice's points (``tests/test_physical_lattice.py``: strategy × kernel
× fragmenter) plus result cache on/off and rollup off/exact/subsume,
and compares every answer, rows *and order*, with a database rebuilt
from scratch out of the rows inserted so far and asked with everything
off.

The array kernel's join index — the hash key structure it keeps on the
detail table's encoding for the next scan over the same two tables — is
one more such state: after every kind of write to either side the next
query must build it afresh (and return the row kernel's rows), the one
after that reuse it, and base-side writes must not pile indexes up on
the detail encoding.
"""

from __future__ import annotations

from dataclasses import is_dataclass

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Database, DataType, QueryOptions, Relation
from repro.algebra.expressions import Expression
from repro.algebra.nested import Subquery
from repro.algebra.operators import Operator, ProjectItem, ScanTable, Select
from repro.algebra.truth import Truth
from repro.engine.cache import PlanCache, reads, scanned_tables
from repro.gmdj.completion import CompletionRule
from repro.gmdj.operator import ThetaBlock
from repro.obs.tracer import tracing
from repro.storage import save_binary
from repro.storage.catalog import Catalog
from repro.storage.columnar import cached_columnar
from repro.storage.npcolumns import HAVE_NUMPY
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
    st.sampled_from(["off", "exact", "subsume"]))


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


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy extra not installed")
@pytest.mark.parametrize("write", list(JOIN_WRITES))
def test_a_write_on_either_side_rebuilds_the_join_index(write, tmp_path):
    db = build({"B": JOIN_B, "R": JOIN_R})
    assert [join_index_of(db, sql) for sql in JOIN_QUERIES] \
        == [("built",), ("reused",)]
    JOIN_WRITES[write](db, tmp_path)
    assert [join_index_of(db, sql) for sql in JOIN_QUERIES] \
        == [("built",), ("reused",)]


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy extra not installed")
def test_base_inserts_leave_at_most_the_bound_on_the_detail_encoding():
    from repro.gmdj.npkernel import JOIN_INDEXES_KEPT

    db = build({"B": JOIN_B, "R": JOIN_R})
    for k in range(JOIN_INDEXES_KEPT + 2):
        db.insert("B", [(k, k)])
        assert join_index_of(db, JOIN_QUERIES[0]) == ("built",)
        assert join_index_of(db, JOIN_QUERIES[1]) == ("reused",)
    kept = cached_columnar(db.table("R"))._join_indexes
    assert len(kept) == JOIN_INDEXES_KEPT


def test_an_unread_table_invalidates_nothing():
    live = build({"B": list(B_ROWS), "R": list(R_ROWS), "S": [(1, 1)]})
    warm = QueryOptions(strategy="gmdj", rollup="subsume")
    expected = live.execute(CASES["agg_avg"], warm).rows
    stored = (live.cache.stats()["results"], len(live.rollups))
    assert min(stored) >= 1
    live.insert("S", [(2, 2)])
    assert (live.cache.stats()["results"], len(live.rollups)) == stored
    assert live.cache.stats()["last_insert_dropped"] == 0
    with tracing() as tracer:
        assert live.execute(CASES["agg_avg"], warm).rows == expected
        assert live.execute(
            CASES["agg_avg"], QueryOptions(strategy="gmdj", rollup="subsume",
                                           use_cache=False)).rows == expected
    assert tracer.trace().find(kind="rollup_hit")
    assert not tracer.trace().find(kind="detail_scan")


def test_scanned_tables_is_what_the_run_resolves(monkeypatch):
    # The plan walk against the ground truth: every stored table the
    # catalog hands out while the query runs — nested predicates,
    # translated plans and SELECT-list subqueries (APPLY) included.
    live = build({"B": list(B_ROWS), "R": list(R_ROWS), "S": [(1, 1)]})
    plans = dict(CASES)
    plans["select_list"] = live.sql(
        "SELECT b.K, (SELECT COUNT(*) FROM S s WHERE s.K = b.K) n, "
        "(SELECT r.Y FROM R r WHERE r.K = b.K AND r.Y = 7) y FROM B b")
    plans["linear"] = live.sql(
        "SELECT b.K FROM B b WHERE EXISTS (SELECT * FROM R r WHERE "
        "r.K = b.K AND r.Y IN (SELECT s.Y FROM S s WHERE s.K = r.K))")
    plans["flat"] = live.sql("SELECT s.K FROM S s WHERE s.Y > 0")
    resolved: set[str] = set()
    table = Catalog.table

    def recording(self, name):
        resolved.add(name)
        return table(self, name)

    import repro.engine.executor as executor

    monkeypatch.setattr(Catalog, "table", recording)
    # (The engine's exit compares a result with *every* stored row list;
    # that is not the plan reading them.)
    monkeypatch.setattr(executor, "_detached", lambda result, _: result)
    for name, plan in plans.items():
        for strategy in ("naive", "gmdj", "gmdj_optimized"):
            resolved.clear()
            live.execute(plan, QueryOptions(strategy=strategy,
                                            use_cache=False))
            assert scanned_tables(plan) == resolved, (name, strategy)
    assert scanned_tables(plans["select_list"]) == {"B", "R", "S"}
    assert scanned_tables(plans["flat"]) == {"S"}


def _shipped_subclasses(base):
    # (Test modules define throwaway operators too; only the engine's.)
    found = set()
    for cls in base.__subclasses__():
        found |= {cls} | _shipped_subclasses(cls)
    return {cls for cls in found if cls.__module__.startswith("repro.")}


def test_the_walk_follows_every_field_of_every_plan_node():
    # The ground-truth test above covers the plan shapes it runs; this
    # one covers the node set.  A ScanTable planted in any field of any
    # operator, expression or plan part — directly or inside a container
    # — must be found, whatever that field usually holds.
    import repro.algebra.apply_op  # noqa: F401  (Operator subclasses
    import repro.gmdj.evaluate  # noqa: F401     live here too)

    node_types = (_shipped_subclasses(Operator) | _shipped_subclasses(Expression)
                  | {Subquery, ThetaBlock, ProjectItem, CompletionRule}
                  ) - {ScanTable}  # what the walk looks for, not into
    assert len(node_types) > 30
    planted = ScanTable("PLANTED", "p")
    # (Operators and expressions are unhashable; a subquery block is
    # the plan part that can sit in a set or key a dict.)
    holder = Subquery(planted, predicate=Truth.TRUE)
    for cls in sorted(node_types, key=lambda cls: cls.__qualname__):
        if not is_dataclass(cls):
            # An abstract base; the walk takes an instance of anything
            # else it cannot see into as "reads every table".
            assert cls.__subclasses__(), cls
            continue
        for name in cls.__dataclass_fields__:
            for value in (planted, (planted,), [planted], {"k": planted},
                          {holder: 1}, {holder}, frozenset({holder})):
                node = object.__new__(cls)
                for other in cls.__dataclass_fields__:
                    object.__setattr__(node, other, None)
                object.__setattr__(node, name, value)
                assert scanned_tables(node) == {"PLANTED"}, (cls, name)


def test_a_node_the_walk_cannot_see_into_reads_every_table():
    class Opaque(Operator):  # not a dataclass: its fields are unknown
        def __init__(self):
            self.hidden = ScanTable("R")

    plan = Select(Opaque(), Truth.TRUE)
    assert scanned_tables(plan) is None
    assert reads(None, "R") and reads(None, "S")
    assert reads(frozenset({"R"}), "R") and not reads(frozenset({"R"}), "S")
    live = build({"B": list(B_ROWS), "R": list(R_ROWS), "S": [(1, 1)]})
    cache = PlanCache()
    cache.store_result("opaque", live.table("B"), scanned_tables(plan))
    cache.store_result("flat", live.table("B"), frozenset({"B"}))
    cache.invalidate_table("S")
    assert cache.result("opaque") is None
    assert cache.result("flat") is not None
