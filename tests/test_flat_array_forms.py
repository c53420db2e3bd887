"""Row-wise flat operators vs their array forms: one differential.

The row-wise ``evaluate`` methods of :mod:`repro.algebra.operators` are
the reference; :mod:`repro.algebra.npoperators` (taken by
``evaluate_plan`` exactly when the kernel is numpy) and the rollup
store's column serving must agree with them on **rows, row order, Python
value types and the full IOStats snapshot** — or refuse
(``NpUnsupported``), in which case the row-wise method runs and the span
says why.  Hypothesis drives ``Select`` / ``Project`` / ``Project
(distinct)`` / ``Limit`` and the rollup exact + subsume tiers over the
fuzzer's NULL-heavy databases; the hand-built cases pin what the random
data rarely reaches: dictionary strings, int-vs-float comparisons at the
2**53 guard, an all-NULL column, an empty input, division by zero and a
comparison the interpreter rejects.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro import Database, DataType, QueryOptions
from repro.algebra.aggregates import AggregateSpec
from repro.algebra.expressions import (
    Coalesce,
    IsNull,
    Literal,
    col,
    lit,
)
from repro.algebra.operators import (
    Limit,
    Operator,
    Project,
    Rename,
    ScanTable,
    Select,
)
from repro.errors import ExpressionError
from repro.fuzz.datagen import random_database
from repro.gmdj.operator import md
from repro.gmdj.physical import evaluate_plan, select_kernel
from repro.obs.metrics import metrics_scope
from repro.obs.tracer import Tracer, tracing
from repro.storage import collect
from repro.storage.catalog import Catalog
from repro.storage.columnar import cached_columnar
from repro.storage.relation import Relation

ROW_KERNEL = select_kernel("row")
NUMPY_KERNEL = select_kernel("numpy")


def typed(rows: list[tuple]) -> list[tuple]:
    """Rows with every value's exact type beside it (1 is not True is
    not 1.0, though Python compares them equal)."""
    return [tuple((type(value), value) for value in row) for row in rows]


def run(plan: Operator, catalog: Catalog, kernel):
    """(typed rows, IOStats snapshot, flat spans) of one evaluation —
    or the ExpressionError it raised."""
    tracer = Tracer()
    with collect() as stats, tracing(tracer):
        try:
            rows = evaluate_plan(plan, catalog, kernel).rows
        except ExpressionError as error:
            return ("raised", str(error)), None, None
    return typed(rows), stats.snapshot(), tracer.trace().find(kind="flat")


def assert_forms_agree(plan: Operator, catalog: Catalog,
                       columnar: bool | None = None):
    """Row kernel walk vs numpy kernel walk of the same plan; with
    ``columnar`` set, also that every non-scan operator did (True) or
    did not (False) take its array form."""
    expected, expected_stats, _ = run(plan, catalog, ROW_KERNEL)
    rows, stats, spans = run(plan, catalog, NUMPY_KERNEL)
    assert rows == expected
    assert stats == expected_stats
    if columnar is not None and spans is not None:
        above = [span for span in spans if span.name != "ScanTable"]
        assert [span.attrs["columnar"] for span in above] \
            == [columnar] * len(above), [span.attrs for span in above]
    return rows


def encoded_catalog(tables: dict[str, Relation]) -> Catalog:
    catalog = Catalog()
    for name, relation in tables.items():
        catalog.create_table(name, relation)
        cached_columnar(relation)  # as a .cols load or a detail scan does
    return catalog


# -- hypothesis: NULL-heavy random data ---------------------------------------

#: Predicates and items over B(k, x, s) as scanned under alias ``b``.
PREDICATES = [
    col("b.x") > lit(3),
    col("b.k") == col("b.x"),
    (col("b.x") >= lit(2)) & (col("b.s") == lit("a")),
    (col("b.k") < lit(1)) | (col("b.s") < lit("c")),
    ~(col("b.x") == lit(0)),
    IsNull(col("b.s")),
    IsNull(col("b.k"), negated=True) & (col("b.s") >= col("b.s")),
    (col("b.x") / col("b.k")) > lit(1),        # division by zero -> NULL
    (col("b.x") * lit(2) - col("b.k")) <= lit(5),
    col("b.x") > lit(2.5),                     # int column vs float literal
]
ITEMS = [
    ["b.k"],
    ["b.s", "b.k"],
    ["b.x", "b.s", "b.k"],
    [(col("b.x") + col("b.k"), "t"), "b.s"],
    [(col("b.x") / col("b.k"), "ratio"), (lit(7), "seven")],
    [(Coalesce(col("b.x"), lit(0)), "x0"), (lit("w"), "word")],
    [(Literal(None), "nothing"), "b.k"],
    [(col("b.x") * lit(1.5), "scaled")],
]


def fuzz_catalog(seed: int) -> Catalog:
    spec = random_database(random.Random(seed), max_rows=14)
    return encoded_catalog({
        name: Relation.from_columns(list(table.columns), table.rows,
                                    name=name)
        for name, table in spec.tables.items()})


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000),
       predicate=st.sampled_from(PREDICATES),
       items=st.sampled_from(ITEMS),
       distinct=st.booleans(),
       window=st.tuples(st.integers(0, 6), st.integers(0, 4)))
def test_select_project_limit_agree(seed, predicate, items, distinct,
                                    window):
    catalog = fuzz_catalog(seed)
    count, offset = window
    scan = ScanTable("B", "b")
    for plan in (
        Select(scan, predicate),
        Project(scan, items, distinct=distinct),
        Limit(scan, count, offset),
        Limit(Project(Select(scan, predicate), items, distinct=distinct),
              count, offset),
        Project(Rename(Select(scan, predicate), "q"), ["q.k", "q.s"],
                distinct=distinct),
    ):
        assert_forms_agree(plan, catalog, columnar=True)


#: One stored node, and finer probes the subsume tier answers from it.
THETA = col("b.k") == col("r.k")
AGGREGATES = [[
    AggregateSpec("count", None, "c0"),
    AggregateSpec("sum", col("r.y"), "s0"),
    AggregateSpec("min", col("r.y"), "m0"),
    AggregateSpec("avg", col("r.y"), "a0"),
    AggregateSpec("count", col("r.s"), "c1"),
]]
RESIDUALS = [
    col("b.x") > lit(2),
    (col("b.x") > lit(2)) & (col("b.s") == lit("a")),
    IsNull(col("b.s")) & (col("b.k") >= lit(1)),
]
BASE_FILTERS = [None, col("b.k") < lit(2), col("b.s") >= lit("b")]


def fuzz_database(seed: int) -> Database:
    spec = random_database(random.Random(seed), max_rows=14)
    db = Database()
    for name, table in spec.tables.items():
        db.create_table(name, list(table.columns), table.rows)
    return db


def profiled(db: Database, plan: Operator, options: QueryOptions):
    report = db.profile(plan, options)
    return typed(report.result.rows), report.counters


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000),
       residual=st.sampled_from(RESIDUALS),
       base_filter=st.sampled_from(BASE_FILTERS))
def test_rollup_tiers_agree(seed, residual, base_filter):
    coarse = md(ScanTable("B", "b"), ScanTable("R", "r"), AGGREGATES,
                [THETA])
    base: Operator = ScanTable("B", "b")
    if base_filter is not None:
        base = Select(base, base_filter)
    fine = md(base, ScanTable("R", "r"), AGGREGATES, [THETA & residual])
    served = {}
    for backend in ("row", "numpy"):
        db = fuzz_database(seed)
        options = QueryOptions(strategy="gmdj", backend=backend,
                               use_cache=False, rollup="subsume")
        cold = profiled(db, coarse, options)
        served[backend] = (cold, profiled(db, coarse, options),
                           profiled(db, fine, options))
        stats = db.rollups.stats()
        assert (stats["exact_hits"], stats["subsume_hits"]) == (1, 1)
    assert served["numpy"] == served["row"]


# -- hand-built cases ----------------------------------------------------------

EDGE = 2 ** 53


def edge_catalog(rows: list[tuple] | None = None) -> Catalog:
    if rows is None:
        rows = [
            (1, 1.0, "pear", True, None),
            (2, 2.5, "fig", False, None),
            (None, None, None, None, None),
            (EDGE, float(EDGE), "pear", True, None),
            (EDGE + 1, 0.0, "apple", None, None),
            (2, 2.5, "fig", False, None),
            (0, -0.0, "", True, None),
        ]
    return encoded_catalog({"T": Relation.from_columns(
        [("i", DataType.INTEGER), ("f", DataType.FLOAT),
         ("s", DataType.STRING), ("b", DataType.BOOLEAN),
         ("n", DataType.INTEGER)], rows, name="T")})


T = ScanTable("T", "t")


def test_dictionary_strings_decode_and_compare():
    catalog = edge_catalog()
    rows = assert_forms_agree(
        Project(Select(T, col("t.s") >= lit("fig")), ["t.s", "t.i"]),
        catalog, columnar=True)
    assert [row[0][1] for row in rows] == ["pear", "fig", "pear", "fig"]
    assert_forms_agree(Project(T, ["t.s"], distinct=True), catalog,
                       columnar=True)


def test_int_vs_float_at_the_exactness_guard_falls_back():
    # 2**53 + 1 rounds when promoted to float64; Python compares the
    # int exactly.  The array form refuses, the span says why.
    catalog = edge_catalog()
    plan = Select(T, col("t.i") > col("t.f"))
    rows = assert_forms_agree(plan, catalog, columnar=False)
    assert (int, EDGE + 1) in [row[0] for row in rows]
    _, _, spans = run(plan, catalog, NUMPY_KERNEL)
    select = next(span for span in spans if span.name == "Select")
    assert "beyond exact float range" in select.attrs["fallback"]
    # Below the guard the same comparison is one mask.
    small = edge_catalog([(3, 2.5, "a", True, None), (2, 2.5, "b", None, 1),
                          (None, 1.0, None, False, None)])
    assert_forms_agree(plan, small, columnar=True)


def test_all_null_column_and_null_literal():
    catalog = edge_catalog()
    assert_forms_agree(Select(T, col("t.n") > lit(0)), catalog,
                       columnar=True)
    assert_forms_agree(Select(T, IsNull(col("t.n"))), catalog,
                       columnar=True)
    rows = assert_forms_agree(
        Project(T, ["t.n", (Literal(None), "nothing"),
                    (col("t.n") + lit(1), "next")], distinct=True),
        catalog, columnar=True)
    assert rows == [((type(None), None),) * 3]


def test_empty_input():
    catalog = edge_catalog([])
    for plan in (Select(T, col("t.i") > lit(0)),
                 Project(T, ["t.s", (col("t.i") * lit(2), "d")],
                         distinct=True),
                 Limit(T, 3, 1)):
        assert assert_forms_agree(plan, catalog, columnar=True) == []


def test_division_by_zero_is_null_in_both_forms():
    # This engine's "/" yields NULL on a zero divisor (the interpreter's
    # documented choice), so neither form raises; they must agree.
    assert_forms_agree(
        Project(T, [(col("t.i") / col("t.f"), "q"),
                    (col("t.f") / col("t.i"), "p")]),
        edge_catalog(), columnar=False)  # 2**53 + 1: the guard again
    small = edge_catalog([(4, 0.0, "a", True, None), (0, 2.0, "b", True, 0),
                          (3, 1.5, "c", None, None)])
    rows = assert_forms_agree(
        Project(Select(T, (col("t.i") / col("t.f")) > lit(1)),
                [(col("t.i") / col("t.f"), "q"),
                 (col("t.f") / col("t.i"), "p")]),
        small, columnar=True)
    assert rows == [((float, 2.0), (float, 0.5))]
    everything = assert_forms_agree(
        Project(T, [(col("t.i") / col("t.f"), "q")]), small, columnar=True)
    assert everything[0] == ((type(None), None),)


def test_an_expression_error_is_the_row_wise_one():
    # String vs number: the interpreter raises; the array form refuses
    # and the fallback raises the very same error.
    catalog = edge_catalog()
    plan = Select(T, col("t.s") > col("t.i"))
    expected, _, _ = run(plan, catalog, ROW_KERNEL)
    assert expected[0] == "raised" and "string vs non-string" in expected[1]
    assert run(plan, catalog, NUMPY_KERNEL)[0] == expected


def test_bool_and_mixed_arithmetic_keep_python_types():
    catalog = edge_catalog([(3, 1.5, "a", True, None),
                            (4, 2.0, "b", False, None),
                            (None, 0.5, "c", None, None)])
    rows = assert_forms_agree(
        Project(T, ["t.b", (col("t.b") + lit(1), "succ"),
                    (col("t.i") * col("t.f"), "mixed"),
                    (col("t.i") - col("t.i"), "zero"), (lit(True), "yes")]),
        catalog, columnar=True)
    assert rows[0] == ((bool, True), (int, 2), (float, 4.5), (int, 0),
                       (bool, True))


def test_row_backed_input_says_so():
    # A relation nobody encoded is cheaper to loop over than to
    # transpose: the array form refuses it.
    catalog = Catalog()
    catalog.create_table("T", Relation.from_columns(
        [("i", DataType.INTEGER)], [(1,), (5,), (None,)], name="T"))
    plan = Select(T, col("t.i") > lit(2))
    assert_forms_agree(plan, catalog, columnar=False)
    _, _, spans = run(plan, catalog, NUMPY_KERNEL)
    assert spans[-1].attrs["fallback"] == "input carries no encoding"


def test_operators_without_an_array_form_keep_reading_rows():
    from repro.algebra.operators import Distinct, OrderBy

    catalog = edge_catalog()
    plan = OrderBy(Distinct(Project(T, ["t.s", "t.i"])), [("t.s", False)])
    assert_forms_agree(plan, catalog)
    with metrics_scope() as registry:
        _, _, spans = run(plan, catalog, NUMPY_KERNEL)
    by_name = {span.name: span.attrs for span in spans}
    assert by_name["Project"]["columnar"] is True
    # Reading rows by design is not a fallback: not on the span, not in
    # the counter.
    for name in ("Distinct", "OrderBy"):
        assert by_name[name]["columnar"] is False
        assert "fallback" not in by_name[name]
    assert registry.counters["flat.columnar"].value == 1
    assert "flat.fallbacks" not in registry.counters
