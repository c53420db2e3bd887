"""One differential over the physical lattice: kernel × fragmenter × rollup
× result cache, plus a coalesced batch against its members run alone.

The engine has one physical GMDJ pipeline (:mod:`repro.gmdj.physical`);
this module holds it to the identity contract at every point of the
option lattice instead of one suite per feature pair:

* **kernel** — row interpreter / python batch / numpy whole-array;
* **fragmenter** — none / detail-partitioned with sequential fragments /
  detail-partitioned on a 2-worker pool (threads: every table here is
  below ``PROCESS_MIN_DETAIL_ROWS``, so ``auto`` picks them);
* **rollup** — off / subsumption tier (cold run, then warm);
* **result cache** — off / on (cold run, then a warm run the cache
  serves).

Every point runs all six Table 1 subquery forms and the Figure 4
``>= ALL`` / ``<>`` completion query over NULL-heavy data, scans as
its plan's cost certificate says where that counts the run (alone,
unfragmented, rollup off), and keeps the identity rule ``repro fuzz``
checks too (:func:`~repro.fuzz.oracle.identity_violations`: the row
interpreter's rows in its order and its IOStats, warm runs, batches).
Three hypothesis properties then draw random databases (the first two
also the fuzzer's NULL-heavy ones), predicates and lattice points — the
second a random batch against its members run alone, the typed one
also invariant-block sharing on or off and each kernel's rows against
the plan's capability certificate — a batch check holds each form's
coalesced batch, under both strategies, to its members run alone, to
the row kernel's batch (rows, order, every item's IOStats) and to its
group's certificate at every kernel × fragmenter point, and
unfragmented to a warm run that the result cache or the rollup store
answers unscanned; one test stacks numpy, a coalesced batch, a warm
rollup store and a warm result cache.

Options come only from the call: this lattice, not a rerun of the whole
suite under another configuration, is where configurations are compared.
"""

from __future__ import annotations

import functools
import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Database, DataType, QueryOptions
from repro.algebra.aggregates import agg
from repro.algebra.expressions import TRUE, Comparison, Not, col, lit
from repro.algebra.nested import (
    Exists,
    NestedSelect,
    QuantifiedComparison,
    ScalarComparison,
    Subquery,
    in_predicate,
    not_in_predicate,
)
from repro.algebra.operators import ScanTable
from repro.errors import PlanError
from repro.fuzz.datagen import random_database
from repro.fuzz.oracle import (
    Point,
    identity_violations,
    observe,
    plan_of,
    point,
)
from repro.gmdj import evaluate_plan, select_fragmenter, select_kernel
from repro.gmdj.evaluate import invariant_sharing
from repro.lint.absint import certify_capabilities, check_capabilities
from repro.lint.cost import certify_plan
from repro.obs.tracer import tracing
from repro.storage import Catalog, Relation, collect
from repro.unnesting import subquery_to_gmdj
from tests.test_property_equivalence import databases, predicates

#: NULL-heavy fixed data: NULLs in join keys, outer columns, and the
#: subquery item/aggregate column, so three-valued logic is exercised
#: on every form.
B_ROWS = [(1, 10), (2, None), (3, 30), (None, 40), (2, 20), (None, None)]
R_ROWS = [(1, 5), (1, None), (2, 2), (3, None), (None, 1), (None, None),
          (2, 7), (3, 3)]


def make_db():
    db = Database()
    db.create_table(
        "B", [("K", DataType.INTEGER), ("X", DataType.INTEGER)], B_ROWS
    )
    db.create_table(
        "R", [("K", DataType.INTEGER), ("Y", DataType.INTEGER)], R_ROWS
    )
    return db


def subquery(theta, **kwargs):
    return Subquery(ScanTable("R", "r"), theta, **kwargs)


#: All six Table 1 subquery forms.
FORMS = ("exists", "not_exists", "in", "not_in", "quantified", "agg")


def form_query(form: str, bound: int) -> NestedSelect:
    """One Table 1 subquery form, parameterized so same-form queries are
    share-compatible (same base, different θ constants)."""
    theta = (col("r.K") == col("b.K")) & (col("r.Y") > lit(bound))
    if form == "exists":
        predicate = Exists(subquery(theta))
    elif form == "not_exists":
        predicate = Exists(subquery(theta), negated=True)
    elif form == "in":
        predicate = in_predicate(
            col("b.X"), subquery(theta, item=col("r.Y"))
        )
    elif form == "not_in":
        predicate = not_in_predicate(
            col("b.X"), subquery(theta, item=col("r.Y"))
        )
    elif form == "quantified":
        predicate = QuantifiedComparison(
            ">", "all", col("b.X"), subquery(theta, item=col("r.Y"))
        )
    elif form == "agg":
        predicate = ScalarComparison(
            ">=", col("b.X"),
            subquery(theta, aggregate=agg("sum", col("r.Y"), "v")),
        )
    else:  # pragma: no cover - guarded by FORMS
        raise AssertionError(form)
    return NestedSelect(ScanTable("B", "b"), predicate)


KERNELS = ["row", "python", "numpy"]

FRAGMENTERS = {
    "none": {},
    "partitioned-w1": dict(partitions=3, workers=1),
    "partitioned-w2": dict(partitions=3, workers=2),
}

#: ``gmdj`` keeps every subquery a plain GMDJ node (the rollup store
#: sees every node); ``gmdj_optimized`` coalesces and fuses completion
#: rules.
STRATEGIES = ("gmdj", "gmdj_optimized")


def fig4_all() -> NestedSelect:
    """Figure 4: ``b.X >= ALL (SELECT r.Y FROM R r WHERE r.K <> b.K)`` —
    the ``<>`` correlation defeats hashing and earns a completion rule."""
    return NestedSelect(ScanTable("B", "b"), QuantifiedComparison(
        ">=", "all", col("b.X"),
        Subquery(ScanTable("R", "r"), col("r.K") != col("b.K"),
                 item=col("r.Y")),
    ))


def aggregate_comparison(function: str) -> NestedSelect:
    """``b.X >= (SELECT f(r.Y) ...)`` — with ``form_query``'s SUM these
    cover every merge class the partition fragmenter recombines (counts
    and sums add, MIN/MAX fold, AVG rebuilds from SUM and COUNT)."""
    theta = (col("r.K") == col("b.K")) & (col("r.Y") > lit(2))
    argument = None if function == "count" else col("r.Y")
    return NestedSelect(ScanTable("B", "b"), ScalarComparison(
        ">=", col("b.X"),
        Subquery(ScanTable("R", "r"), theta,
                 aggregate=agg(function, argument, "v")),
    ))


CASES = {form: form_query(form, 2) for form in FORMS}
CASES["fig4_all"] = fig4_all()
for _function in ("count", "avg", "min", "max"):
    CASES[f"agg_{_function}"] = aggregate_comparison(_function)


def at(strategy, kernel, fragmenter, **knobs) -> Point:
    return point(strategy, kernel, **knobs, **FRAGMENTERS[fragmenter])


@functools.cache
def observed(case, where: Point):
    return observe(where, CASES[case], make_db)


def checked(case, where: Point):
    """Observe a case at a point under tracing: the ``detail_scans``
    counter must count its detail scans, a run the cost certificate
    counts must scan as it says, and the point must keep the identity
    rule."""
    with tracing() as tracer:
        seen = observe(where, CASES[case], make_db)
    trace = tracer.trace()
    options = where.options
    if (not where.batched and options.partitions is None
            and options.rollup == "off"):
        plan = plan_of(where.translation, CASES[case], make_db().catalog)
        assert certify_plan(plan).violations(seen.io) == []
    scans = seen.io["detail_scans"] + (seen.warm_io or {}).get(
        "detail_scans", 0)
    assert scans == len(trace.find(kind="detail_scan"))
    assert identity_violations(
        where, seen, observed(case, where.reference()),
        observed(case, where.unfragmented())) == []
    return seen, trace


class TestLattice:
    @pytest.mark.parametrize("fragmenter", FRAGMENTERS)
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("case", CASES)
    def test_rows_order_iostats_and_trace(self, case, strategy, kernel,
                                          fragmenter):
        _, trace = checked(case, at(strategy, kernel, fragmenter))
        if strategy == "gmdj" and fragmenter == "partitioned-w2":
            # The executor is left at ``auto``: these tables are far
            # below PROCESS_MIN_DETAIL_ROWS, so it picks threads.
            assert {pool.attrs["executor"]
                    for pool in trace.find(kind="pool")} == {"thread"}

    @pytest.mark.parametrize("fragmenter", FRAGMENTERS)
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("case", CASES)
    def test_rollup_cold_and_warm(self, case, strategy, kernel, fragmenter):
        _, trace = checked(
            case, at(strategy, kernel, fragmenter, rollup="subsume"))
        if strategy == "gmdj":
            # The rule's zero-scan warm run is the store's doing.
            assert trace.find(kind="rollup_hit")

    @pytest.mark.parametrize("fragmenter", FRAGMENTERS)
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("case", CASES)
    def test_result_cache_cold_and_warm(self, case, strategy, kernel,
                                        fragmenter):
        seen, _ = checked(
            case, at(strategy, kernel, fragmenter, use_cache=True))
        assert seen.cache_served

    @pytest.mark.parametrize("fragmenter", FRAGMENTERS)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_batch_matches_solo(self, kernel, fragmenter):
        # Each form coalesced at two bounds, under both strategies,
        # against its members run alone (each a batch of one, which
        # plans no group), and against the row kernel's batch: rows,
        # order, and every item's IOStats.  The group's certificate
        # claims one scan of R, which the run confirms unfragmented.
        # Unfragmented, the batch runs warm again with the result cache
        # on, then with the rollup store on: both answer it unscanned.
        tiers = [{}]
        if fragmenter == "none":
            tiers += [dict(use_cache=True), dict(rollup="subsume")]
        for strategy, form, knobs in itertools.product(STRATEGIES, FORMS,
                                                       tiers):
            queries = [form_query(form, bound) for bound in (0, 3)]
            reference = batch_reference(strategy, form, fragmenter)
            db = make_db()
            options = at(strategy, kernel, fragmenter, **knobs).options
            alone = [make_db().execute(query, options) for query in queries]
            with tracing() as tracer, collect() as stats:
                batch = db.execute_batch(queries, options)
            assert stats.detail_scans == len(
                tracer.trace().find(kind="detail_scan"))
            assert sum(item.detail_scans for item in batch.items) == (
                pytest.approx(stats.detail_scans))
            for item, solo, expected in zip(batch.items, alone, reference):
                assert item.result.schema.names == solo.schema.names
                assert item.result.rows == solo.rows, form
                assert item.io == expected.io, form
            (group,) = batch.report.groups
            assert group.certificate.scan_counts == {"R": 1}
            assert group.scans_saved == len(queries) - 1
            # The scan-count certificate is checkable only when no
            # fragmenter multiplies the detail scans.
            assert group.certified is (True if fragmenter == "none" else None)
            if not knobs:
                continue
            with collect() as stats:
                warm = db.execute_batch(queries, options)
            assert stats.detail_scans == 0, (form, knobs)
            assert [result.rows for result in warm] == [
                result.rows for result in batch], (form, knobs)
            if knobs.get("use_cache"):
                assert not warm.report.groups
            else:
                (group,) = warm.report.groups
                assert group.certified is None
                assert group.runtime_detail_scans == 0

    def test_repeated_member_is_answered_from_the_cache(self):
        # A holistic COUNT(DISTINCT) forms no group: the second copy is
        # answered by the first's stored result, as when run in order.
        db = make_db()
        sql = ("SELECT b.K FROM B b WHERE b.X > (SELECT COUNT(DISTINCT r.Y) "
               "FROM R r WHERE r.K = b.K)")
        with collect() as stats:
            batch = db.execute_sql_batch([sql, sql],
                                         QueryOptions(use_cache=True))
        assert not batch.report.groups
        assert stats.detail_scans == 1
        stats = db.cache.stats()
        assert (stats["result_hits"], stats["result_misses"]) == (1, 1)
        alone = db.execute_sql(sql, QueryOptions(use_cache=False)).rows
        assert [result.rows for result in batch] == [alone, alone]

    def test_every_warm_tier_at_once(self):
        # numpy × coalesced batch × warm rollup store × warm result
        # cache.  The cases coalesce into one group; a query with its
        # own base stays a singleton.  Every member probes the result
        # cache first, and the group's merged GMDJ meets the rollup
        # store as the singleton's GMDJ does: warm, the cache serves
        # each exact text, the rollup store the singleton's GMDJ spelled
        # differently, and — once the results are dropped — the group's
        # merged GMDJ too.  No warm run scans.
        db = make_db()
        options = at("gmdj_optimized", "numpy", "none",
                     rollup="subsume", use_cache=True).options
        maximum = aggregate_comparison("max")
        filtered = col("b.X") > lit(1)
        alone = NestedSelect(maximum.child, maximum.predicate & filtered)
        respelled = NestedSelect(maximum.child, filtered & maximum.predicate)
        alone_rows = make_db().execute(
            alone, at("gmdj_optimized", "row", "none").options).rows
        members = len(CASES) + 1
        for run, singleton, groups, hits in (
                ("cold", alone, 1, (0, 0)),
                ("cached", alone, 0, (members, 0)),
                ("rollup", respelled, 0, (2 * members - 1, 1)),
                ("merged rollup", alone, 1, (2 * members - 1, 3))):
            if run == "merged rollup":
                db.cache.invalidate_results()
            with collect() as stats:
                batch = db.execute_batch([*CASES.values(), singleton],
                                         options)
            assert len(batch.report.groups) == groups, run
            assert (stats.detail_scans == 0) is (run != "cold"), run
            for case, result in zip(CASES, batch):
                expected = observed(case, at("gmdj_optimized", "row", "none"))
                assert result.rows == expected.rows[0], (run, case)
            assert batch[-1].rows == alone_rows, run
            assert (db.cache.stats()["result_hits"],
                    db.rollups.stats()["exact_hits"]) == hits, run
        (group,) = batch.report.groups
        assert group.certified is None


@functools.cache
def batch_reference(strategy: str, form: str, fragmenter: str) -> tuple:
    """The row kernel's cold batch of ``form`` at two bounds: its items."""
    options = at(strategy, "row", fragmenter).options
    return tuple(make_db().execute_batch(
        [form_query(form, bound) for bound in (0, 3)], options).items)


# -- random lattice points ------------------------------------------------------

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

fragmenters = st.one_of(
    st.none(),
    st.builds(lambda partitions, workers: dict(
        partitions=partitions, workers=workers, executor="thread"),
        st.integers(min_value=1, max_value=8), st.sampled_from([1, 2, 4])),
)


def fuzzer_catalog(seed: int) -> Catalog:
    """The fuzzer's NULL-heavy database for ``seed`` (skewed keys,
    duplicate rows, 40% NULLs in every column), rebuilt under the
    property grammar's ``B(K, X)`` / ``R(K, Y)`` schema, data unchanged."""
    generated = random_database(random.Random(seed), max_rows=12,
                                null_rate=0.4).build_catalog()
    catalog = Catalog()
    for name, value in (("B", "X"), ("R", "Y")):
        catalog.create_table(name, Relation.from_columns(
            [("K", DataType.INTEGER), (value, DataType.INTEGER)],
            [(row[0], row[1]) for row in generated.table(name).rows],
        ))
    return catalog


catalogs = st.one_of(databases(),
                     st.integers(min_value=0, max_value=10_000).map(
                         fuzzer_catalog))


class TestRandomLatticePoints:
    @SETTINGS
    @given(catalog=catalogs, predicate=predicates(),
           optimize=st.booleans(), kernel=st.sampled_from(KERNELS),
           chunk_size=st.one_of(st.none(), st.integers(1, 6)),
           fragmenter=fragmenters)
    def test_any_point_matches_row_interpreter(
            self, catalog, predicate, optimize, kernel, chunk_size,
            fragmenter):
        query = NestedSelect(ScanTable("B", "b"), predicate)
        plan = subquery_to_gmdj(query, catalog, optimize=optimize)
        expected = plan.evaluate(catalog)
        if kernel == "row":
            chunk_size = None
        result = evaluate_plan(
            plan, catalog, select_kernel(kernel, chunk_size),
            select_fragmenter(**(fragmenter or {})))
        assert result.rows == expected.rows

    @SETTINGS
    @given(catalog=catalogs, kernel=st.sampled_from(KERNELS),
           predicates=st.lists(st.one_of(predicates(), st.builds(
               lambda bound: col("b.X") > lit(bound), st.integers(0, 6))),
               min_size=2, max_size=5))
    def test_batch_matches_members_alone(self, catalog, kernel, predicates):
        # Random compatible and incompatible members (a flat one never
        # shares): each member of the batch returns the rows, in order,
        # that the row kernel returns for it alone.
        db = Database()
        db.catalog = catalog
        queries = [NestedSelect(ScanTable("B", "b"), predicate)
                   for predicate in predicates]
        batch = db.execute_batch(
            queries, QueryOptions(backend=kernel, use_cache=False))
        for query, result in zip(queries, batch):
            assert result.rows == db.execute(query, QueryOptions(
                backend="row", use_cache=False)).rows

    @SETTINGS
    @given(data=st.data(), optimize=st.booleans(), sharing=st.booleans(),
           chunk_size=st.one_of(st.none(), st.integers(1, 6)))
    def test_kernels_identical_on_typed_data(self, data, optimize, sharing,
                                             chunk_size):
        # Strings (dictionary-coded keys), floats and NULLs in every
        # column: each kernel must return the row interpreter's exact
        # row list; python and numpy must also agree on every counter,
        # and on completion-free plans all three do.  Invariant-block
        # sharing off turns invariant blocks into scan blocks: every
        # kernel must flip identically.  And every kernel's rows uphold
        # the plan's capability certificate.
        catalog = data.draw(typed_databases())
        predicate = data.draw(typed_predicates())
        query = NestedSelect(ScanTable("B", "b"), predicate)
        plan = subquery_to_gmdj(query, catalog, optimize=optimize)
        snapshots = {}
        rows = {}
        with invariant_sharing(sharing):
            for kernel in KERNELS:
                run = select_kernel(
                    kernel, None if kernel == "row" else chunk_size)
                with collect() as stats:
                    rows[kernel] = evaluate_plan(plan, catalog, run).rows
                snapshots[kernel] = stats.snapshot()
        for kernel in KERNELS[1:]:
            assert rows[kernel] == rows["row"], kernel
        if not optimize:
            assert snapshots["python"] == snapshots["row"]
        assert snapshots["numpy"] == snapshots["python"]
        certificate = certify_capabilities(plan, catalog)
        for kernel in KERNELS:
            violations = check_capabilities(rows[kernel], certificate)
            assert not violations, (kernel, violations)


class TestRemovedSurface:
    """``mode`` and the legacy strategy names are rejected, not silently
    reinterpreted."""

    def test_mode_field_is_gone(self):
        with pytest.raises(TypeError):
            QueryOptions(mode="partitioned")

    @pytest.mark.parametrize("name", [
        "gmdj_parallel",
        "auto", "cost_based", "gmdj_coalesce", "gmdj_completion",
    ])
    def test_legacy_strategy_names_are_gone(self, name):
        # No alias either: the error names the seven that remain.
        with pytest.raises(PlanError, match="gmdj_optimized"):
            QueryOptions(strategy=name)


# -- typed-data generators ------------------------------------------------------

small_int = st.one_of(st.none(), st.integers(min_value=0, max_value=6))
small_str = st.one_of(st.none(), st.sampled_from(["aa", "bb", "cc"]))
small_float = st.one_of(st.none(),
                        st.sampled_from([-1.5, 0.0, -0.0, 2.25, 9.5]))


@st.composite
def typed_databases(draw):
    catalog = Catalog()
    b_rows = draw(st.lists(st.tuples(small_int, small_int, small_str),
                           min_size=0, max_size=8))
    r_rows = draw(st.lists(
        st.tuples(small_int, small_int, small_str, small_float),
        min_size=0, max_size=12))
    catalog.create_table("B", Relation.from_columns(
        [("K", DataType.INTEGER), ("X", DataType.INTEGER),
         ("S", DataType.STRING)], b_rows,
    ))
    catalog.create_table("R", Relation.from_columns(
        [("K", DataType.INTEGER), ("Y", DataType.INTEGER),
         ("T", DataType.STRING), ("G", DataType.FLOAT)], r_rows,
    ))
    return catalog


comparison_ops = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])
agg_functions = st.sampled_from(["count", "sum", "avg", "min", "max"])


@st.composite
def inner_conditions(draw, alias="r"):
    conjuncts = []
    if draw(st.booleans()):
        conjuncts.append(col(f"{alias}.K") == col("b.K"))
    if draw(st.booleans()):
        # String equi-correlation: dictionary-coded hash keys.
        conjuncts.append(col(f"{alias}.T") == col("b.S"))
    if draw(st.booleans()):
        op = draw(comparison_ops)
        conjuncts.append(Comparison(op, col(f"{alias}.Y"),
                                    lit(draw(st.integers(0, 6)))))
    if draw(st.booleans()):
        # Float residual over a NULL-heavy column.
        conjuncts.append(Comparison(draw(comparison_ops),
                                    col(f"{alias}.G"), lit(1.5)))
    if not conjuncts:
        return TRUE
    predicate = conjuncts[0]
    for extra in conjuncts[1:]:
        predicate = predicate & extra
    return predicate


#: Inner item / aggregate argument columns, covering every array dtype.
ITEM_COLUMNS = ("Y", "T", "G")


@st.composite
def subquery_leaves(draw, alias="r"):
    theta = draw(inner_conditions(alias))
    kind = draw(st.sampled_from(FORMS))
    item_column = draw(st.sampled_from(ITEM_COLUMNS))
    item = col(f"{alias}.{item_column}")
    outer = col("b.S") if item_column == "T" else col("b.X")
    subquery = Subquery(ScanTable("R", alias), theta)
    if kind == "exists":
        return Exists(subquery)
    if kind == "not_exists":
        return Exists(subquery, negated=True)
    if kind == "in":
        return in_predicate(
            outer, Subquery(ScanTable("R", alias), theta, item=item))
    if kind == "not_in":
        return not_in_predicate(
            outer, Subquery(ScanTable("R", alias), theta, item=item))
    if kind == "agg":
        function = draw(agg_functions)
        argument = None if function == "count" else item
        outer_side = outer
        if item_column == "T" and function in ("count", "sum", "avg"):
            # These aggregates are numeric regardless of the argument;
            # keep the comparison type-correct.
            argument = None if function == "count" else col(f"{alias}.Y")
            outer_side = col("b.X")
        return ScalarComparison(
            draw(comparison_ops), outer_side,
            Subquery(ScanTable("R", alias), theta,
                     aggregate=agg(function, argument, "v")),
        )
    return QuantifiedComparison(
        draw(comparison_ops), draw(st.sampled_from(["some", "all"])),
        outer, Subquery(ScanTable("R", alias), theta, item=item),
    )


@st.composite
def typed_predicates(draw):
    first = draw(subquery_leaves("r1"))
    shape = draw(st.sampled_from(["single", "and", "or", "not"]))
    if shape == "single":
        return first
    if shape == "not":
        return Not(first)
    second = draw(
        st.one_of(
            subquery_leaves("r2"),
            st.builds(lambda v: col("b.X") > lit(v), st.integers(0, 6)),
        )
    )
    if shape == "and":
        return first & second
    return first | second
