"""Nothing per base tuple in Python on the array path.

On ``backend="numpy"`` a block the array kernel takes keeps its base
keys, its accumulator state and its emitted aggregates as columns:

* the paper's Figure 2, 3 and 5 queries answer with accumulator-object
  construction (``AggregateSpec.make_accumulator``) and the Python
  bucket builder over B (``evaluate._bucket_base_rows``) both patched to
  raise — each of which ran once per base tuple before the change;
* the ``detail_scan`` span says how every hash block resolved its keys
  (``key_lookup``: direct addressing for a dense base-key range,
  ``searchsorted`` for a sparse one) and how many blocks share one key
  structure (``shared_keys``), and EXPLAIN ANALYZE shows both;
* objects exist only where a reason is reported: a per-value aggregate
  or a block that gives up brings its ``fallbacks`` entry along.

Nothing per tuple in Python *around* the node either: the node's output
is a column-backed relation, the ``Select`` / ``Project`` above it (and
a subquery-free filter over an encoded table, and the rollup store's
exact and subsume tiers) run their array forms, and tuples are built
once, where the result leaves the engine — the figures answer with
``Select.evaluate``, ``Project.evaluate``, ``evaluate._emit_rows`` and
the rollup store's row loop all patched to raise.
"""

from __future__ import annotations

import random
import sys
import time

import pytest

import repro.algebra.analysis as analysis
import repro.engine.mqo as mqo
import repro.engine.rollup as rollup
import repro.gmdj.evaluate as evaluate
import repro.gmdj.vectorized as vectorized
from repro import Database, DataType, QueryOptions
from repro.algebra.aggregates import AggregateSpec
from repro.algebra.operators import Project, Select
from repro.obs.tracer import Tracer, tracing
from repro.storage.columnar import ColumnarRelation

FIG2 = ("SELECT c.custkey FROM customer c WHERE EXISTS "
        "(SELECT * FROM orders o WHERE o.custkey = c.custkey "
        "AND o.totalprice > 300000)")
FIG3 = ("SELECT c.custkey FROM customer c WHERE c.acctbal * 50 > "
        "(SELECT AVG(o.totalprice) FROM orders o "
        "WHERE o.custkey = c.custkey)")
FIG5 = ("SELECT c.custkey FROM customer c WHERE EXISTS "
        "(SELECT * FROM orders o1 WHERE o1.custkey = c.custkey "
        "AND o1.totalprice > 250000) AND EXISTS "
        "(SELECT * FROM orders o2 WHERE o2.custkey = c.custkey "
        "AND o2.orderpriority = '1-URGENT')")
FIGURES = {"fig2": FIG2, "fig3": FIG3, "fig5": FIG5}

ROW = QueryOptions(backend="row", use_cache=False, rollup="off")
NUMPY = QueryOptions(backend="numpy", use_cache=False, rollup="off")


def make_db(customers: int = 40, orders: int = 600,
            key_stride: int = 1) -> Database:
    """customer x orders in the benchmark's shape: half the order keys
    dangle; ``key_stride`` spreads the customer keys out."""
    rng = random.Random(7)
    db = Database()
    db.create_table(
        "customer",
        [("custkey", DataType.INTEGER), ("name", DataType.STRING),
         ("acctbal", DataType.FLOAT)],
        [(key * key_stride, f"Customer#{key}",
          round(rng.uniform(-999.99, 9999.99), 2))
         for key in range(1, customers + 1)])
    db.create_table(
        "orders",
        [("orderkey", DataType.INTEGER), ("custkey", DataType.INTEGER),
         ("totalprice", DataType.FLOAT), ("orderpriority", DataType.STRING)],
        [(key, rng.randint(1, customers * 2) * key_stride,
          round(rng.uniform(850.0, 450000.0), 2),
          rng.choice(["1-URGENT", "2-HIGH", "5-LOW"]))
         for key in range(1, orders + 1)])
    return db


def forbid_per_base_tuple_python(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("per-base-tuple Python ran on the array path")

    monkeypatch.setattr(AggregateSpec, "make_accumulator", refuse)
    monkeypatch.setattr(evaluate, "_bucket_base_rows", refuse)


def detail_scans(db: Database, sql: str, options: QueryOptions):
    tracer = Tracer()
    with tracing(tracer):
        result = db.execute_sql(sql, options)
    scans = tracer.trace().find(kind="detail_scan")
    assert scans, "no detail scan ran"
    return result, scans


@pytest.mark.parametrize("figure", sorted(FIGURES))
def test_figures_build_no_objects_over_the_base(monkeypatch, figure):
    db = make_db()
    sql = FIGURES[figure]
    expected = db.execute_sql(sql, ROW).rows
    assert 0 < len(expected) < 40
    forbid_per_base_tuple_python(monkeypatch)
    result, scans = detail_scans(db, sql, NUMPY)
    assert result.rows == expected
    for scan in scans:
        assert scan.attrs["backend"] == "numpy"
        assert not scan.attrs.get("fallbacks")
        assert set(scan.attrs["key_lookup"]) == {"direct"}


def test_invariant_blocks_keep_their_shared_state_in_arrays(monkeypatch):
    # A detail-only θ is computed once and shared (Rao & Ross): one
    # group in arrays, broadcast at finalize — no accumulator list.
    from repro.algebra.aggregates import agg, count_star
    from repro.algebra.expressions import col, lit
    from repro.algebra.operators import ScanTable
    from repro.gmdj import md
    from repro.gmdj.evaluate import run_gmdj
    from repro.gmdj.vectorized import run_gmdj_vectorized

    db = make_db(customers=5, orders=40)
    gmdj = md(ScanTable("customer", "c"), ScanTable("orders", "o"),
              [[count_star("n"), agg("max", col("o.totalprice"), "top")],
               [count_star("mine")]],
              [col("o.totalprice") > lit(200000),
               col("o.custkey") == col("c.custkey")])
    base = gmdj.base.evaluate(db.catalog)
    detail = gmdj.detail.evaluate(db.catalog)
    schema = gmdj.schema(db.catalog)
    expected = run_gmdj(base, detail, gmdj, schema,
                        selection=col("n") > col("mine")).rows
    assert expected and len({row[-3:-1] for row in expected}) == 1
    forbid_per_base_tuple_python(monkeypatch)
    assert run_gmdj_vectorized(
        base, detail, gmdj, schema, selection=col("n") > col("mine"),
        backend="numpy").rows == expected


def test_the_forbidden_paths_are_the_other_kernels_paths(monkeypatch):
    # The patch is not vacuous: the python kernel builds both.
    db = make_db()
    forbid_per_base_tuple_python(monkeypatch)
    with pytest.raises(AssertionError, match="per-base-tuple"):
        db.execute_sql(FIG2, QueryOptions(backend="python", use_cache=False,
                                          rollup="off"))


def forbid_row_closures(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("row closures bound on the array path")

    monkeypatch.setattr(evaluate._BlockRuntime, "_bind_rows", refuse)
    monkeypatch.setattr(AggregateSpec, "bind_argument", refuse)


def count_factoring(monkeypatch) -> list:
    """Every θ factoring a GMDJ kernel module asks for, by condition."""
    calls: list = []
    original = analysis.factor_condition

    def counted(condition, *args, **kwargs):
        calls.append(condition)
        return original(condition, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro.gmdj") \
                and getattr(module, "factor_condition", None) is original:
            monkeypatch.setattr(module, "factor_condition", counted)
    return calls


@pytest.mark.parametrize("figure", sorted(FIGURES))
def test_figures_bind_no_row_closures_and_factor_once(monkeypatch, figure):
    # The array kernel reads a block's factored θ and its specs; it
    # calls no row evaluator, so none is bound, and each block's θ is
    # factored once per scan.
    db = make_db()
    sql = FIGURES[figure]
    expected = db.execute_sql(sql, ROW).rows
    forbid_row_closures(monkeypatch)
    factored = count_factoring(monkeypatch)
    result, scans = detail_scans(db, sql, NUMPY)
    assert result.rows == expected
    assert len(factored) == sum(len(scan.attrs["forms"]) for scan in scans)
    # The patch is not vacuous: the row kernel binds both.
    with pytest.raises(AssertionError, match="row closures"):
        db.execute_sql(sql, ROW)


def test_coalesced_blocks_share_one_key_structure():
    # Figure 5's two EXISTS coalesce into two blocks over the one key
    # o1.custkey = c.custkey; the constant orderpriority component is
    # the second block's own row mask.
    db = make_db()
    _, (scan,) = detail_scans(db, FIG5, NUMPY)
    assert scan.attrs["shared_keys"] == (2, 2)
    assert scan.attrs["key_lookup"] == ("direct", "direct")
    _, (scan,) = detail_scans(db, FIG2, NUMPY)
    assert scan.attrs["shared_keys"] == (1,)


def test_key_lookup_follows_the_base_key_range():
    # Keys 2**40 apart cannot be addressed directly; same answer.
    dense, sparse = make_db(), make_db(key_stride=2 ** 40)
    for sql in FIGURES.values():
        _, dense_scans = detail_scans(dense, sql, NUMPY)
        result, sparse_scans = detail_scans(sparse, sql, NUMPY)
        assert {k for s in dense_scans for k in s.attrs["key_lookup"]} \
            == {"direct"}
        assert {k for s in sparse_scans for k in s.attrs["key_lookup"]} \
            == {"sorted"}
        assert not any(s.attrs.get("fallbacks") for s in sparse_scans)
        assert result.rows == sparse.execute_sql(sql, ROW).rows


def test_explain_analyze_shows_lookup_and_sharing():
    db = make_db()
    report = db.explain_analyze(db.sql(FIG5), NUMPY)
    executed = next(line for line in str(report).splitlines()
                    if line.startswith("-- executed:"))
    assert "key_lookup=['direct', 'direct']" in executed
    assert "shared_keys=[2, 2]" in executed
    assert "fallbacks" not in executed


def test_objects_exist_only_where_a_reason_is_reported(monkeypatch):
    # SUM(DISTINCT) is holistic: its accumulators are per value, and the
    # scan says so; the count(*) beside it stays in arrays.
    db = make_db()
    sql = ("SELECT c.custkey FROM customer c WHERE 300000 < "
           "(SELECT SUM(DISTINCT o.totalprice) FROM orders o "
           "WHERE o.custkey = c.custkey)")
    expected = db.execute_sql(sql, ROW).rows
    monkeypatch.setattr(evaluate, "_bucket_base_rows",
                        lambda *args: pytest.fail("buckets built"))
    result, scans = detail_scans(db, sql, NUMPY)
    assert result.rows == expected
    assert any("DISTINCT" in reason
               for scan in scans for reason in scan.attrs["fallbacks"])


# -- nothing per tuple around the node -----------------------------------------

FILTER = "SELECT orderkey, totalprice FROM orders WHERE totalprice > 300000"


def forbid_per_tuple_python(monkeypatch):
    """The row-wise operator methods, the row emit and the rollup
    store's row loop: each ran once per tuple before the change."""
    def refuse(*args, **kwargs):
        raise AssertionError("per-tuple Python ran outside the node")

    monkeypatch.setattr(Select, "evaluate", refuse)
    monkeypatch.setattr(Project, "evaluate", refuse)
    monkeypatch.setattr(evaluate, "_emit_rows", refuse)
    monkeypatch.setattr(vectorized, "_emit_rows", refuse)
    monkeypatch.setattr(rollup, "_serve_rows", refuse)


def flat_spans(db: Database, sql: str, options: QueryOptions):
    tracer = Tracer()
    with tracing(tracer):
        result = db.execute_sql(sql, options)
    return result, tracer.trace().find(kind="flat")


@pytest.mark.parametrize("figure", sorted(FIGURES))
def test_figures_run_no_row_loop_around_the_node(monkeypatch, figure):
    db = make_db()
    sql = FIGURES[figure]
    expected = db.execute_sql(sql, ROW).rows
    forbid_per_base_tuple_python(monkeypatch)
    forbid_per_tuple_python(monkeypatch)
    result, spans = flat_spans(db, sql, NUMPY)
    assert result.rows == expected
    above = [span for span in spans if span.name != "ScanTable"]
    assert above and all(span.attrs["columnar"] for span in above)
    assert not any("fallback" in span.attrs for span in spans)


def test_plain_filter_over_an_encoded_table_is_one_mask(monkeypatch):
    db = make_db()
    expected = db.execute_sql(FILTER, ROW).rows
    assert 0 < len(expected) < 600
    db.execute_sql(FIG2, NUMPY)  # the detail scan encodes orders
    forbid_per_tuple_python(monkeypatch)
    result, spans = flat_spans(db, FILTER, NUMPY)
    assert result.rows == expected
    assert [(span.name, span.attrs["columnar"]) for span in spans] == [
        ("ScanTable", True), ("Select", True), ("Project", True)]
    select = spans[1]
    assert (select.attrs["rows_in"], select.attrs["rows_out"]) \
        == (600, len(expected))


def test_a_table_without_an_encoding_says_so_and_loops(monkeypatch):
    # The patch is not vacuous, and the reason lands on the span.
    db = make_db()
    result, spans = flat_spans(db, FILTER, NUMPY)
    assert result.rows == db.execute_sql(FILTER, ROW).rows
    select = next(span for span in spans if span.name == "Select")
    assert select.attrs["columnar"] is False
    assert select.attrs["fallback"] == "input carries no encoding"
    forbid_per_tuple_python(monkeypatch)
    with pytest.raises(AssertionError, match="per-tuple"):
        db.execute_sql(FILTER, NUMPY)


def test_rows_are_built_once_where_the_result_leaves_the_engine(monkeypatch):
    db = make_db()
    expected = db.execute_sql(FIG3, ROW).rows
    result = db.execute_sql(FIG3, NUMPY)
    monkeypatch.setattr(
        ColumnarRelation, "to_rows",
        lambda self: pytest.fail("transposed on the caller's read"))
    assert result.rows == expected


def test_the_runner_hands_back_a_relation_holding_its_rows(monkeypatch):
    # Whoever times ``execute`` (benchmarks/) times the
    # transposition too: it does not wait for the first ``rows`` read.
    from repro.engine import execute

    db = make_db()
    expected = db.execute_sql(FIG3, ROW).rows
    result = execute(db.sql(FIG3), db.catalog, NUMPY)
    monkeypatch.setattr(
        ColumnarRelation, "to_rows",
        lambda self: pytest.fail("transposed on the caller's read"))
    assert result.rows == expected


COALESCE = QueryOptions(backend="numpy", use_cache=False, rollup="off")


def test_a_coalesced_batch_builds_rows_inside_its_clock(monkeypatch):
    # The shared result stays columns — split_result picks them, the
    # residuals run on them — and each member's own result is transposed
    # once, after its residual, inside that member's elapsed_seconds;
    # nothing transposes once execute_batch has returned.
    from repro.storage.columnar import cached_columnar

    db = make_db()
    members = [FIG2, FIG2.replace("300000", "100000"),
               FIG2.replace("300000", "200000")]
    expected = [db.execute_sql(sql, ROW).rows for sql in members]
    shared, transposed = [], []
    to_rows = ColumnarRelation.to_rows
    split = mqo.split_result

    def counted(self):
        transposed.append(self)
        time.sleep(0.02)
        return to_rows(self)

    def split_seen(shared_result, *args):
        shared.append(shared_result)
        return split(shared_result, *args)

    monkeypatch.setattr(ColumnarRelation, "to_rows", counted)
    monkeypatch.setattr(mqo, "split_result", split_seen)
    batch = db.execute_sql_batch(members, COALESCE)
    assert batch.report.groups
    assert len(transposed) == len(members)
    assert len(shared) == len(members) and all(
        result is shared[0] for result in shared)
    assert all(columns is not cached_columnar(shared[0])
               for columns in transposed)
    assert all(item.elapsed_seconds >= 0.02 for item in batch.items)
    assert [result.rows for result in batch] == expected
    assert len(transposed) == len(members)


#: Two share groups over ``orders``: four AVG comparisons over one base
#: (they dedup to one block; a customer without orders makes its column
#: carry a NULL mask) and three EXISTS over another alias of it, whose
#: consumers are fused SelectGMDJs — the completion selection comes back
#: as a Select over the split piece.  The base carries a string column.
BATCH = [
    FIG3.replace("* 50 >", f"* {factor} {op}")
    for factor, op in ((50, ">"), (40, "<="), (60, ">="), (30, "<"))
] + [
    FIG2.replace("customer c", "customer k").replace("c.custkey", "k.custkey")
    .replace("300000", cut) for cut in ("300000", "200000", "420000")
]


def batch_db() -> Database:
    db = make_db()
    db.insert("customer", [(1000, "Customer#1000", 25.0)])
    return db


def run_batch(db: Database, options: QueryOptions):
    from repro.storage import collect

    tracer = Tracer()
    with collect() as stats, tracing(tracer):
        batch = db.execute_sql_batch(BATCH, options)
    return batch, stats.snapshot(), tracer.trace()


def test_a_coalesced_batch_runs_no_row_loop(monkeypatch):
    from repro.gmdj.evaluate import SelectGMDJ

    db = batch_db()
    alone = [db.execute_sql(sql, ROW).rows for sql in BATCH]
    # AVG over no orders is NULL: UNKNOWN under every comparison.
    assert all(alone) and not any((1000,) in rows for rows in alone)
    plan = mqo.plan_batch([db.sql(sql) for sql in BATCH], db.catalog,
                          COALESCE)
    assert [len(group.indices) for group in plan.groups] == [4, 3]
    assert all(isinstance(candidate.node, SelectGMDJ)
               for candidate in plan.groups[1].candidates)
    row_batch, row_stats, _ = run_batch(
        db, QueryOptions(backend="row", use_cache=False, rollup="off"))
    assert [result.rows for result in row_batch] == alone
    forbid_per_base_tuple_python(monkeypatch)
    forbid_per_tuple_python(monkeypatch)
    batch, stats, _ = run_batch(db, COALESCE)
    assert [result.rows for result in batch] == alone
    assert [result.schema.names for result in batch] \
        == [result.schema.names for result in row_batch]
    assert stats == row_stats
    assert [item.io for item in batch.items] \
        == [item.io for item in row_batch.items]
    assert len(batch.report.groups) == 2


def test_a_batch_trace_shows_each_members_residual_operators():
    # One mqo_member span per coalesced member, holding one flat span
    # per residual operator; the group span says the shared result was
    # columns.  On the row kernel: the same spans, columnar=False.
    db = batch_db()
    for options, columnar in (
            (COALESCE, True),
            (QueryOptions(backend="row", use_cache=False, rollup="off"),
             False)):
        _, _, trace = run_batch(db, options)
        groups = trace.find(kind="mqo_group")
        assert [span.attrs["columnar"] for span in groups] \
            == [columnar, columnar]
        members = trace.find(kind="mqo_member")
        assert sorted(span.attrs["index"] for span in members) \
            == list(range(len(BATCH)))
        for member in members:
            flat = [span for span in member.walk() if span.kind == "flat"]
            names = [span.name for span in flat]
            assert names.count("TableValue") == 1 and "Project" in names
            # A fused consumer's completion selection is a Select again.
            assert ("Select" in names) or member.attrs["group"] == 0
            operators = [span for span in flat if span.name != "TableValue"]
            assert all(span.attrs["columnar"] is columnar
                       for span in operators)
            assert all({"rows_in", "rows_out"} <= set(span.attrs)
                       for span in operators)
            assert not any("fallback" in span.attrs for span in flat)


def test_a_members_fallback_reaches_the_executed_summary():
    # An int compared with a float beyond 2**53 has no exact array
    # form: that member's Select runs row-wise, says why on its span,
    # and executed_summary (the ``-- executed:`` line) carries it.
    from repro.obs.explain import executed_summary
    from repro.obs.metrics import metrics_scope

    db = batch_db()
    members = [
        "SELECT c.custkey FROM customer c WHERE c.custkey + "
        f"{bound} > (SELECT AVG(o.totalprice) "
        "FROM orders o WHERE o.custkey = c.custkey)"
        for bound in (2 ** 60, 5)]
    expected = [db.execute_sql(sql, ROW).rows for sql in members]
    tracer = Tracer()
    with metrics_scope() as metrics, tracing(tracer):
        batch = db.execute_sql_batch(members, COALESCE)
    assert [result.rows for result in batch] == expected
    assert batch.report.groups
    executed = executed_summary(tracer.trace())
    # (The Projects above a row-wise Select find no encoding to read.)
    assert executed["flat_fallbacks"] == [
        "Select: int/float comparison beyond exact float range",
        "Project: input carries no encoding",
        "Project: input carries no encoding"]
    assert metrics.counter("flat.fallbacks").value == 3
    assert metrics.counter("flat.columnar").value == 3


def test_rollup_tiers_serve_columns(monkeypatch):
    # Fig 3's node is a plain GMDJ (no completion), so the store takes
    # it; the finer factor is the same node under another Select.
    db = make_db()
    warm = QueryOptions(backend="numpy", use_cache=False, rollup="subsume")
    expected = db.execute_sql(FIG3, ROW).rows
    assert db.execute_sql(FIG3, warm).rows == expected  # stores
    forbid_per_tuple_python(monkeypatch)
    result, spans = flat_spans(db, FIG3, warm)
    assert result.rows == expected
    assert db.rollups.stats()["exact_hits"] == 1  # the verbatim tier
    assert all(span.attrs["columnar"] for span in spans)


def test_rollup_subsumption_is_masks_over_the_prefix(monkeypatch):
    from repro.algebra.aggregates import agg, count_star
    from repro.algebra.expressions import col, lit
    from repro.algebra.operators import ScanTable
    from repro.gmdj import md

    db = make_db()
    theta = col("o.custkey") == col("c.custkey")
    aggregates = [[count_star("n"), agg("avg", col("o.totalprice"), "a")]]
    coarse = md(ScanTable("customer", "c"), ScanTable("orders", "o"),
                aggregates, [theta])
    fine = md(Select(ScanTable("customer", "c"),
                     col("c.custkey") > lit(10)),
              ScanTable("orders", "o"), aggregates,
              [theta & (col("c.acctbal") > lit(0.0))])
    off = QueryOptions(strategy="gmdj", backend="row", use_cache=False,
                       rollup="off")
    warm = QueryOptions(strategy="gmdj", backend="numpy", use_cache=False,
                        rollup="subsume")
    expected = db.execute(fine, off).rows
    assert any(row[-2] == 0 and row[-1] is None for row in expected)
    db.execute(coarse, warm)
    forbid_per_tuple_python(monkeypatch)
    served = db.execute(fine, warm)
    assert db.rollups.stats()["subsume_hits"] == 1
    assert served.rows == expected


@pytest.mark.parametrize("backend", ["numpy", "python", "auto"])
def test_an_insert_into_a_loaded_table_never_re_encodes_it(
        monkeypatch, tmp_path, backend):
    # A write extends the mapped encoding (a NULL into mask-free
    # columns and a new dictionary word included): the Fig 2 scan after
    # it reads current arrays, and the encoder never sees the table
    # again — on any kernel.
    from repro.storage import save_catalog_binary

    reference = make_db()
    before = reference.execute_sql(FIG2, ROW).rows
    newcomer = min(set(range(1, 41)) - {key for (key,) in before})
    new_rows = [(9001, None, 440000.0, "1-URGENT"), (9002, 3, None, "2-HIGH"),
                (9003, newcomer, 440000.0, "0-NEW")]
    reference.insert("orders", new_rows)
    expected = reference.execute_sql(FIG2, ROW).rows
    assert sorted(expected) == sorted(before + [(newcomer,)])

    save_catalog_binary(make_db().catalog, tmp_path)
    db = Database()
    for name in ("customer", "orders"):
        db.load_binary(name, tmp_path / f"{name}.cols")
    mapped = db.table("orders")._columnar[0]
    assert mapped.mask_free_columns() == 4

    def refuse(*args, **kwargs):
        raise AssertionError("a stored table was re-encoded from its rows")

    monkeypatch.setattr(ColumnarRelation, "from_relation", refuse)
    db.insert("orders", new_rows)
    options = QueryOptions(backend=backend, use_cache=False, rollup="off")
    result, scans = detail_scans(db, FIG2, options)
    assert result.rows == expected
    assert all(not scan.attrs.get("fallbacks") for scan in scans)
    (current,) = db.table("orders")._columnar
    assert current is not mapped and current.length == mapped.length + 3
    assert current.mask_free_columns() == 2
    assert current.columns[3].dictionary[-1] == "0-NEW"
