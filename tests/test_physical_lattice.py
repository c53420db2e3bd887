"""One differential over the physical lattice: kernel × fragmenter × rollup
× result cache × MQO.

The engine has one physical GMDJ pipeline (:mod:`repro.gmdj.physical`);
this module holds it to the identity contract at every point of the
option lattice instead of one suite per feature pair:

* **kernel** — row interpreter / python batch / numpy whole-array (when
  the extra is installed);
* **fragmenter** — none / detail-partitioned with sequential fragments /
  detail-partitioned on a 2-worker pool (threads: every table here is
  below ``PROCESS_MIN_DETAIL_ROWS``, so ``auto`` picks them);
* **rollup** — off / subsumption tier (cold run, then warm);
* **result cache** — off / on (cold run, then a warm run the cache
  serves);
* **MQO** — a batch run ``off`` / ``coalesce``.

Every point must return the row interpreter's rows *in its order* for
all six Table 1 subquery forms and the Figure 4 ``>= ALL`` / ``<>``
completion query over NULL-heavy data, keep ``check_trace`` clean, and
reproduce the reference ``IOStats`` snapshot wherever the contract
promises it (kernel swaps on completion-free plans; python vs numpy
always; scan volume under partitioning; pooled == sequential).  Two
hypothesis properties then draw random databases, predicates and
lattice points, a batch check holds both MQO levels to the same points,
and one test stacks numpy, a coalesced batch, a warm rollup store and a
warm result cache.

Options come only from the call: this lattice, not a rerun of the whole
suite under another configuration, is where configurations are compared.

The typed-data generators at the bottom half are shared with
``test_property_backend`` (which needs numpy and adds the
invariant-sharing and certificate properties).
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import QueryOptions
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
from repro.engine.options import MQO_LEVELS
from repro.errors import PlanError
from repro.gmdj import evaluate_plan, select_fragmenter, select_kernel
from repro.obs.invariants import check_trace
from repro.obs.tracer import tracing
from repro.storage import Catalog, DataType, Relation, collect
from repro.storage.npcolumns import HAVE_NUMPY
from repro.unnesting import subquery_to_gmdj
from tests.test_mqo_differential import FORMS, form_query, make_db
from tests.test_property_equivalence import databases, predicates

KERNELS = ["row", "python"] + (["numpy"] if HAVE_NUMPY else [])

FRAGMENTERS = {
    "none": {},
    "partitioned-w1": dict(partitions=3, workers=1),
    "partitioned-w2": dict(partitions=3, workers=2),
}

#: ``gmdj`` keeps every subquery a plain GMDJ node (completion-free, so
#: full IOStats identity is promised and the rollup store sees every
#: node); ``gmdj_optimized`` coalesces and fuses completion rules.
STRATEGIES = ("gmdj", "gmdj_optimized")

#: The scan-volume counters every lattice point must reproduce.
VOLUME = ("tuples_scanned", "relation_scans", "pages_read")


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


def options_at(strategy, kernel, fragmenter, rollup="off", use_cache=False,
               mqo="coalesce"):
    return QueryOptions(strategy=strategy, backend=kernel,
                        use_cache=use_cache, rollup=rollup, mqo=mqo,
                        **FRAGMENTERS[fragmenter])


def run_checked(db, query, options):
    """Execute under tracing + IOStats collection; the trace must be clean."""
    with tracing() as tracer, collect() as stats:
        result = db.execute(query, options)
    trace = tracer.trace()
    report = check_trace(trace)
    assert report.ok, report.violations
    return result, stats.snapshot(), trace


@functools.cache
def reference(case, strategy):
    """The row interpreter's answer (single scan, rollup off) for a case:
    ``(column names, rows, IOStats snapshot)``."""
    result, snapshot, _ = run_checked(
        make_db(), CASES[case], options_at(strategy, "row", "none"))
    return result.schema.names, result.rows, snapshot


class TestLattice:
    @pytest.mark.parametrize("fragmenter", FRAGMENTERS)
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("case", CASES)
    def test_rows_order_iostats_and_trace(self, case, strategy, kernel,
                                          fragmenter):
        names, rows, expected = reference(case, strategy)
        result, snapshot, _ = run_checked(
            make_db(), CASES[case], options_at(strategy, kernel, fragmenter))
        assert result.schema.names == names
        assert result.rows == rows  # values, duplicates, order
        if fragmenter == "none":
            if strategy == "gmdj":
                # Completion-free: batching reorders work without
                # changing how much of it happens.
                assert snapshot == expected
            else:
                assert {k: snapshot.get(k) for k in VOLUME} == {
                    k: expected.get(k) for k in VOLUME}
        elif fragmenter.startswith("partitioned"):
            # Fragments tile the detail: parallelism adds no passes.
            assert snapshot["tuples_scanned"] == expected["tuples_scanned"]

    @pytest.mark.parametrize("fragmenter", FRAGMENTERS)
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("case", CASES)
    def test_rollup_cold_and_warm(self, case, strategy, kernel, fragmenter):
        _, rows, _ = reference(case, strategy)
        db = make_db()
        options = options_at(strategy, kernel, fragmenter, rollup="subsume")
        cold, _, _ = run_checked(db, CASES[case], options)
        warm, _, warm_trace = run_checked(db, CASES[case], options)
        assert cold.rows == rows
        assert warm.rows == rows
        if strategy == "gmdj":
            # Every node is a plain GMDJ the cold run stored: the warm
            # run is served without touching the detail relation.
            assert warm_trace.find(kind="rollup_hit")
            assert not warm_trace.find(kind="detail_scan")

    @pytest.mark.parametrize("fragmenter", FRAGMENTERS)
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("case", CASES)
    def test_result_cache_cold_and_warm(self, case, strategy, kernel,
                                        fragmenter):
        _, rows, _ = reference(case, strategy)
        db = make_db()
        options = options_at(strategy, kernel, fragmenter, use_cache=True)
        cold, _, _ = run_checked(db, CASES[case], options)
        hits = db.cache.result_hits
        warm, _, _ = run_checked(db, CASES[case], options)
        assert db.cache.result_hits == hits + 1
        assert cold.rows == rows
        assert warm.rows == rows

    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy extra not installed")
    @pytest.mark.parametrize("fragmenter", FRAGMENTERS)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("case", CASES)
    def test_numpy_counters_identical_to_python(self, case, strategy,
                                                fragmenter):
        # The backend switch is an array-kernel substitution inside one
        # scan algorithm: completion or not, every counter agrees.
        query = CASES[case]
        _, python, _ = run_checked(
            make_db(), query, options_at(strategy, "python", fragmenter))
        _, numpy, _ = run_checked(
            make_db(), query, options_at(strategy, "numpy", fragmenter))
        assert numpy == python

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("case", CASES)
    def test_pooled_counters_match_sequential(self, case, kernel):
        query = CASES[case]
        _, sequential, _ = run_checked(
            make_db(), query, options_at("gmdj", kernel, "partitioned-w1"))
        _, pooled, trace = run_checked(
            make_db(), query, options_at("gmdj", kernel, "partitioned-w2"))
        assert pooled == sequential
        # The executor is left at ``auto``: these tables are far below
        # PROCESS_MIN_DETAIL_ROWS, so it picks threads.
        assert {pool.attrs["executor"]
                for pool in trace.find(kind="pool")} == {"thread"}

    @pytest.mark.parametrize("fragmenter", FRAGMENTERS)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_batch_matches_solo(self, kernel, fragmenter):
        queries = [form_query("exists", bound) for bound in (0, 3)]
        for mqo in MQO_LEVELS:
            db = make_db()
            options = options_at("gmdj_optimized", kernel, fragmenter,
                                 mqo=mqo)
            batch = db.execute_batch(queries, options)
            for query, result in zip(queries, batch):
                assert result.rows == db.execute(query, options).rows, mqo
            assert len(batch.report.groups) == (mqo == "coalesce")
            for group in batch.report.groups:
                # The scan-count certificate is checkable only when no
                # fragmenter multiplies the detail_scan spans.
                assert group.certified is (
                    True if fragmenter == "none" else None)

    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy extra not installed")
    def test_every_warm_tier_at_once(self):
        # numpy × coalesced batch × warm rollup store × warm result
        # cache.  The cases coalesce into one group; a query with its
        # own base stays a singleton, so the warm tiers answer it: the
        # result cache by its exact text, the rollup store when the
        # same GMDJ comes back spelled differently.
        db = make_db()
        options = options_at("gmdj_optimized", "numpy", "none",
                             rollup="subsume", use_cache=True)
        maximum = aggregate_comparison("max")
        filtered = col("b.X") > lit(1)
        alone = NestedSelect(maximum.child, maximum.predicate & filtered)
        respelled = NestedSelect(maximum.child, filtered & maximum.predicate)
        alone_rows = make_db().execute(
            alone, options_at("gmdj_optimized", "row", "none")).rows
        for run, singleton, hits in (("cold", alone, (0, 0)),
                                     ("cached", alone, (1, 0)),
                                     ("rollup", respelled, (1, 1))):
            batch = db.execute_batch([*CASES.values(), singleton], options)
            assert len(batch.report.groups) == 1, run
            for case, result in zip(CASES, batch):
                assert result.rows == reference(case, "gmdj_optimized")[1], (
                    run, case)
            assert batch[-1].rows == alone_rows, run
            assert (db.cache.result_hits, db.rollups.exact_hits) == hits, run


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


class TestRandomLatticePoints:
    @SETTINGS
    @given(catalog=databases(), predicate=predicates(),
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
    @given(data=st.data(), optimize=st.booleans(),
           chunk_size=st.one_of(st.none(), st.integers(1, 6)))
    def test_kernels_identical_on_typed_data(self, data, optimize,
                                             chunk_size):
        # Strings (dictionary-coded keys), floats and NULLs in every
        # column: each kernel must return the row interpreter's exact
        # row list; python and numpy must also agree on every counter,
        # and on completion-free plans all three do.
        catalog = data.draw(typed_databases())
        predicate = data.draw(typed_predicates())
        query = NestedSelect(ScanTable("B", "b"), predicate)
        plan = subquery_to_gmdj(query, catalog, optimize=optimize)
        snapshots = {}
        rows = {}
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
        if HAVE_NUMPY:
            assert snapshots["numpy"] == snapshots["python"]


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


# -- typed-data generators (shared with test_property_backend) -----------------

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


#: All six Table 1 subquery forms.
FORMS = ("exists", "not_exists", "in", "not_in", "quantified", "agg")

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
