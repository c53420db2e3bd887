"""A non-aggregate scalar subquery is the aggregate ``single(y)``.

Its one rule (DESIGN.md): a ``single`` block raises CardinalityError iff
some tuple of its GMDJ's base — the FROM of the block holding the
subquery, extended for outer references — has two or more θ-rows.  Every
strategy and kernel holds to it, and agrees with SQLite where it does
not raise.
"""

import random
import sqlite3
from collections import Counter

import pytest

from repro import QueryOptions
from repro.algebra.aggregates import AggregateSpec, single
from repro.algebra.expressions import col
from repro.algebra.operators import Select
from repro.engine import STRATEGIES, Database, plan_for
from repro.engine.options import GMDJ_STRATEGIES
from repro.errors import CardinalityError
from repro.gmdj import GMDJ, derive_completion_rule, pull_up_base_selection
from repro.gmdj.optimize import push_base_selections
from repro.lint.absint import classify_aggregate
from repro.obs.metrics import get_registry
from repro.storage import DataType, collect

I = DataType.INTEGER

#: B(K, X) and R(K, Y): R.K = 1 repeats, so a block correlated on K
#: raises for b.K = 1; R.K = 3 holds a NULL Y.
B_ROWS = [(1, 5), (2, 7), (3, 1)]
R_ROWS = [(1, 5), (1, 6), (2, 7), (3, None)]

GAP = "SELECT b.K FROM B b WHERE b.X = (SELECT r.Y FROM R r WHERE r.K = b.K)"

ITEM = "(SELECT r.Y FROM R r WHERE r.K = b.K)"
UNIQUE_ITEM = "(SELECT r.Y FROM R r WHERE r.K = b.K AND r.Y <> 5)"

#: name -> (SQL, B's rows, whether it raises).  Where it does not, every
#: point returns SQLite's rows.
CASES = {
    # The gap: Table 1's cnt = 1 rule returned (1), (2) here.
    "where leaf": (GAP, B_ROWS, True),
    "where leaf, no duplicate": (
        f"SELECT b.K FROM B b WHERE b.X = {UNIQUE_ITEM}", B_ROWS, False),
    # b.K = 1 fails the plain conjunct, whichever side it is on; its
    # single block still sees both of its rows.
    "plain conjunct first": (
        f"SELECT b.K FROM B b WHERE b.X < 3 AND b.X = {ITEM}", B_ROWS, True),
    "plain conjunct last": (
        f"SELECT b.K FROM B b WHERE b.X = {ITEM} AND b.X < 3", B_ROWS, True),
    "select item": (f"SELECT b.K, {ITEM} v FROM B b", B_ROWS, True),
    "select item, no duplicate": (
        f"SELECT b.K, {UNIQUE_ITEM} v FROM B b", B_ROWS, False),
    "null item value": (
        "SELECT b.K, (SELECT r.Y FROM R r WHERE r.K = b.K AND r.K = 3) v "
        "FROM B b", B_ROWS, False),
    "empty subquery": (
        "SELECT b.K, (SELECT r.Y FROM R r WHERE r.K = b.K AND r.Y > 100) v "
        "FROM B b", B_ROWS, False),
    "uncorrelated item": (
        "SELECT b.K, (SELECT r.Y FROM R r WHERE r.Y = 7) v FROM B b",
        B_ROWS, False),
    "uncorrelated duplicates": (
        "SELECT b.K, (SELECT r.Y FROM R r WHERE r.K = 1) v FROM B b",
        B_ROWS, True),
    "empty outer from": (
        "SELECT b.K, (SELECT r.Y FROM R r WHERE r.K = 1) v FROM B b "
        "WHERE b.X = (SELECT r2.Y FROM R r2)", [], False),
    "nested in exists": (
        "SELECT b.K FROM B b WHERE EXISTS (SELECT * FROM B b2 "
        "WHERE b2.K = b.K AND b2.X = (SELECT r.Y FROM R r "
        "WHERE r.K = b2.K))", B_ROWS, True),
    "nested in exists, no duplicate": (
        "SELECT b.K FROM B b WHERE EXISTS (SELECT * FROM B b2 "
        "WHERE b2.K = b.K AND b2.X = (SELECT r.Y FROM R r "
        "WHERE r.K = b2.K AND r.Y <> 5))", B_ROWS, False),
}

#: The single block's base is R r2, which B's emptiness does not empty.
NESTED_UNDER_EMPTY_OUTER = (
    "SELECT b.K FROM B b WHERE EXISTS (SELECT * FROM R r2 WHERE r2.K = b.K "
    "AND r2.Y = (SELECT r.Y FROM R r WHERE r.K = r2.K))")

POINTS = [(strategy, backend) for strategy in STRATEGIES
          for backend in (("row", "python", "numpy")
                          if strategy in GMDJ_STRATEGIES else ("auto",))]


def database(b_rows) -> Database:
    db = Database()
    db.create_table("B", [("K", I), ("X", I)], b_rows)
    db.create_table("R", [("K", I), ("Y", I)], R_ROWS)
    db.create_index("R", "K")
    return db


def sqlite_rows(sql: str, b_rows) -> Counter:
    connection = sqlite3.connect(":memory:")
    connection.execute("CREATE TABLE B (K INTEGER, X INTEGER)")
    connection.execute("CREATE TABLE R (K INTEGER, Y INTEGER)")
    connection.executemany("INSERT INTO B VALUES (?, ?)", b_rows)
    connection.executemany("INSERT INTO R VALUES (?, ?)", R_ROWS)
    rows = connection.execute(sql).fetchall()
    connection.close()
    return Counter(rows)


def _nodes(node):
    yield node
    for child in node.children():
        yield from _nodes(child)


@pytest.mark.parametrize("name", CASES)
def test_every_point_raises_or_returns_sqlites_rows(name):
    sql, b_rows, raises = CASES[name]
    db = database(b_rows)
    expected = None if raises else sqlite_rows(sql, b_rows)
    for strategy, backend in POINTS:
        options = QueryOptions(strategy, backend=backend, use_cache=False)
        if raises:
            with pytest.raises(CardinalityError):
                db.execute_sql(sql, options)
        else:
            rows = db.execute_sql(sql, options).rows
            assert Counter(rows) == expected, (strategy, backend)


def test_gap_query_is_one_single_block():
    db = database(B_ROWS)
    plan = plan_for(db.sql(GAP), db.catalog, "gmdj_optimized")
    gmdjs = [node for node in _nodes(plan) if isinstance(node, GMDJ)]
    assert len(gmdjs) == 1
    [block] = gmdjs[0].blocks
    assert [spec.function for spec in block.aggregates] == ["single"]


def test_single_is_holistic():
    capability = classify_aggregate(single(col("r.Y")))
    assert capability.klass == "holistic" and not capability.decomposable


def test_no_rewrite_changes_a_single_blocks_base():
    db = database(B_ROWS)
    plan = plan_for(db.sql(f"SELECT b.K FROM B b WHERE b.X < 3 AND "
                           f"b.X = {ITEM}"), db.catalog, "gmdj")
    [gmdj] = [node for node in _nodes(plan) if isinstance(node, GMDJ)]
    select = next(node for node in _nodes(plan)
                  if getattr(node, "child", None) is gmdj)
    assert push_base_selections(select, db.catalog) is select
    assert derive_completion_rule(select.predicate, gmdj, True).useful \
        is False
    lifted = GMDJ(Select(gmdj.base, col("b.X") < col("b.K")), gmdj.detail,
                  gmdj.blocks)
    assert pull_up_base_selection(lifted) is None


def test_accumulator_raises_on_a_second_row():
    state = AggregateSpec("single", col("y"), "v").make_accumulator()
    assert state.result() is None
    state.add(None)
    with pytest.raises(CardinalityError):
        state.add(4)


def test_native_select_list_uses_its_own_loop_settings():
    """The SELECT-list item runs in the strategy's loop: ``native``
    probes R.K's index as its WHERE twin does, ``naive`` scans."""
    rng = random.Random(7)
    db = Database()
    db.create_table("B", [("K", I), ("X", I)],
                    [(k, rng.randint(0, 9)) for k in range(200)])
    db.create_table("R", [("K", I), ("Y", I)],
                    [(rng.randrange(200), rng.randint(0, 9))
                     for _ in range(2000)])
    db.create_index("R", "K")
    item = "(SELECT COUNT(*) FROM R r WHERE r.K = b.K)"
    select_list = f"SELECT b.K, {item} n FROM B b"
    where = f"SELECT b.K FROM B b WHERE 0 < {item}"
    counters = {}
    for strategy in ("native", "naive"):
        for sql in (select_list, where):
            with collect() as stats:
                db.execute_sql(sql, QueryOptions(strategy, use_cache=False))
            counters[strategy, sql] = (stats.tuples_scanned,
                                       stats.index_probes)
    assert counters["native", select_list] == (400, 200)
    assert counters["native", where] == (400, 200)
    assert counters["naive", select_list] == (200 + 200 + 200 * 2000, 0)


def test_reference_run_leaves_the_bind_cache_alone():
    rng = random.Random(3)
    db = Database()
    db.create_table("B", [("K", I), ("X", I)],
                    [(k, rng.randint(0, 9)) for k in range(200)])
    db.create_table("R", [("K", I), ("Y", I)],
                    [(rng.randrange(200), rng.randint(0, 9))
                     for _ in range(300)])
    query = db.sql("SELECT b.K FROM B b WHERE b.X >= ALL "
                   "(SELECT r.Y FROM R r WHERE r.K <> b.K)")
    options = QueryOptions("naive", use_cache=False)
    db.execute(query, options)  # binds the output projection once
    misses = get_registry().counter("expr_bind_cache_misses")
    before = misses.value
    db.execute(query, options)
    assert misses.value == before


def test_a_nested_single_under_an_empty_outer_from_is_the_translations():
    """Tuple iteration never reaches the inner block when B is empty; a
    translation evaluates it over its own FROM (Thm 3.2) and raises."""
    sql = NESTED_UNDER_EMPTY_OUTER
    db = database([])
    outcomes = {}
    for strategy, backend in POINTS:
        try:
            db.execute_sql(sql, QueryOptions(strategy, backend=backend,
                                             use_cache=False))
            outcomes[strategy] = "rows"
        except CardinalityError:
            outcomes[strategy] = "raises"
    assert outcomes == {
        "naive": "rows", "native": "rows", "native_noindex": "rows",
        "unnest_join": "raises", "unnest_join_noindex": "raises",
        "gmdj": "raises", "gmdj_optimized": "raises"}


@pytest.mark.parametrize("sql, b_rows, raised", [
    (GAP, B_ROWS, True),
    (CASES["select item, no duplicate"][0], B_ROWS, False),
    (NESTED_UNDER_EMPTY_OUTER, [], False),
])
def test_every_lattice_point_holds_to_the_raise_rule(sql, b_rows, raised):
    """The fuzz oracle at every point: where the reference raises, all
    raise; a lattice point raises iff its row kernel does; a nested
    ``single`` under an empty outer FROM may raise where tuple iteration
    does not."""
    from repro.fuzz.datagen import DatabaseSpec, TableSpec
    from repro.fuzz.oracle import run_differential

    spec = DatabaseSpec({
        "B": TableSpec("B", (("K", I), ("X", I)), b_rows),
        "R": TableSpec("R", (("K", I), ("Y", I)), R_ROWS),
    })
    outcome = run_differential(spec, sql, sql)
    assert outcome.ok, outcome.divergences
    assert outcome.raised is raised


def test_a_spurious_raise_over_non_empty_froms_is_a_divergence(monkeypatch):
    """Every block below is reached, so a CardinalityError where the
    reference returns rows is a divergence — here unnest_join's, made to
    raise."""
    from repro.fuzz import oracle
    from repro.fuzz.datagen import DatabaseSpec, TableSpec

    sql = CASES["nested in exists, no duplicate"][0]
    observe = oracle.observe

    def broken(point, *args):
        if point.translation == "unnest_join":
            raise CardinalityError("a scalar subquery returned 2 rows")
        return observe(point, *args)

    monkeypatch.setattr(oracle, "observe", broken)
    spec = DatabaseSpec({
        "B": TableSpec("B", (("K", I), ("X", I)), B_ROWS),
        "R": TableSpec("R", (("K", I), ("Y", I)), R_ROWS),
    })
    outcome = oracle.run_differential(spec, sql, sql)
    assert [(each.engine, each.kind) for each in outcome.divergences] == [
        ("unnest_join", "error")]
