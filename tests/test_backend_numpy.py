"""The numpy whole-array backend: selection, fallback, and caching.

Covers the knobs and edges the property suite cannot pin one by one:

* backend resolution (``auto``, the default, is numpy; an unknown name
  is a :class:`~repro.errors.ConfigurationError`);
* per-operator fallback to the python kernel — holistic DISTINCT
  ``SUM``/``AVG`` aggregates, object-encoded columns (>64-bit ints),
  int-sum overflow guards, NaN min/max — each recorded on the
  ``detail_scan`` span and each still producing the python kernel's
  exact rows and counters;
* completion on arrays: runs with a :class:`CompletionRule` carry *no*
  fallback and equal the row kernel on rows, order, every counter and
  the partial aggregates of assured tuples at any tile size, and an
  :class:`NpUnsupported` under a rule leaves no partial state;
* the range form: scan blocks of Figure 4's shape answered by sorted
  search, with the row kernel's rows and counters under every rule it
  takes, and the pair walk for the shapes and data it declines;
* the relation-level columnar-encoding cache (hit/miss counters, scan
  views, extension on mutation).
"""

from __future__ import annotations

import random

import pytest

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import DataType, QueryOptions
from repro.algebra.aggregates import AggregateSpec, agg, count_star
from repro.algebra.expressions import col, lit
from repro.algebra.operators import ScanTable, Select
from repro.errors import ConfigurationError
from repro.engine.options import resolve_kernel
from repro.gmdj import (
    evaluate_plan,
    evaluate_plan_vectorized,
    md,
)
from repro.gmdj import npkernel
from repro.gmdj.completion import CompletionRule
from repro.gmdj.evaluate import SelectGMDJ, _BlockRuntime, run_gmdj
from repro.gmdj.vectorized import run_gmdj_vectorized
from repro.obs.metrics import metrics_scope
from repro.obs.tracer import Tracer, tracing
from repro.storage import Catalog, Relation, collect
from repro.storage.columnar import cached_columnar
from repro.unnesting import subquery_to_gmdj


def null_heavy_catalog(seed=0, rows=150):
    rng = random.Random(seed)

    def maybe(value, rate=0.25):
        return None if rng.random() < rate else value

    base = Relation.from_columns(
        [("K", DataType.INTEGER), ("X", DataType.INTEGER)],
        [(maybe(i % 6), maybe(rng.randrange(50))) for i in range(17)],
        name="B", qualifier="b",
    )
    detail = Relation.from_columns(
        [("K", DataType.INTEGER), ("V", DataType.INTEGER),
         ("S", DataType.STRING), ("F", DataType.FLOAT)],
        [(maybe(rng.randrange(6)), maybe(rng.randrange(100)),
          maybe(rng.choice(["red", "green", "blue"])),
          maybe(rng.choice([0.5, -2.25, 31.0])))
         for _ in range(rows)],
        name="R", qualifier="r",
    )
    catalog = Catalog()
    catalog.create_table("B", base)
    catalog.create_table("R", detail)
    return catalog, base, detail


def run_both_kernels(gmdj, catalog):
    """(python rows/stats, numpy rows/stats, numpy detail_scan span)."""
    base = gmdj.base.evaluate(catalog)
    detail = gmdj.detail.evaluate(catalog)
    schema = gmdj.schema(catalog)
    with collect() as python_stats:
        python_result = run_gmdj_vectorized(base, detail, gmdj, schema,
                                            backend="python")
    tracer = Tracer()
    with collect() as numpy_stats, tracing(tracer):
        numpy_result = run_gmdj_vectorized(base, detail, gmdj, schema,
                                           backend="numpy")
    (scan,) = tracer.trace().find(kind="detail_scan")
    return python_result, python_stats, numpy_result, numpy_stats, scan


def assert_identical(gmdj, catalog, expect_fallback=None):
    python_result, python_stats, numpy_result, numpy_stats, scan = \
        run_both_kernels(gmdj, catalog)
    assert python_result.rows == numpy_result.rows
    assert python_stats.snapshot() == numpy_stats.snapshot()
    assert scan.attrs["backend"] == "numpy"
    fallbacks = scan.attrs.get("fallbacks", ())
    if expect_fallback is None:
        assert not fallbacks
    else:
        assert any(expect_fallback in reason for reason in fallbacks), \
            fallbacks
    return scan


class TestResolveKernel:
    def test_default_is_auto(self):
        assert QueryOptions().kernel() == "numpy"

    def test_explicit_values(self):
        assert resolve_kernel("python") == "python"
        assert resolve_kernel("numpy") == "numpy"
        assert resolve_kernel("auto") == "numpy"

    def test_options_validate_backend(self):
        with pytest.raises(ConfigurationError):
            QueryOptions(backend="cuda")


class TestKernelIdentityAndFallbacks:
    def test_hash_block_no_fallback(self):
        catalog, _, _ = null_heavy_catalog()
        gmdj = md(ScanTable("B", "b"), ScanTable("R", "r"),
                  [[count_star("c"), agg("sum", col("r.V"), "s")]],
                  [(col("b.K") == col("r.K")) & (col("r.V") > lit(40))])
        assert_identical(gmdj, catalog)

    def test_scan_block_base_residual_no_fallback(self):
        catalog, _, _ = null_heavy_catalog()
        gmdj = md(ScanTable("B", "b"), ScanTable("R", "r"),
                  [[agg("max", col("r.V"), "m")]],
                  [col("r.V") < col("b.X")])
        assert_identical(gmdj, catalog)

    def test_distinct_aggregate_falls_back_per_value(self):
        catalog, _, _ = null_heavy_catalog()
        gmdj = md(
            ScanTable("B", "b"), ScanTable("R", "r"),
            [[AggregateSpec("sum", col("r.V"), "d", distinct=True),
              count_star("c")]],
            [col("b.K") == col("r.K")],
        )
        assert_identical(gmdj, catalog, expect_fallback="DISTINCT")

    def test_object_column_falls_back_whole_block(self):
        # A detail column holding a >64-bit int has no array form; every
        # expression touching it sends the whole block to the python
        # kernel, and untouched blocks stay on the numpy path.
        catalog = Catalog()
        catalog.create_table("B", Relation.from_columns(
            [("K", DataType.INTEGER)], [(0,), (1,), (None,)],
            name="B", qualifier="b"))
        catalog.create_table("R", Relation.from_columns(
            [("K", DataType.INTEGER), ("H", DataType.INTEGER)],
            [(0, 2 ** 70), (0, 3), (1, None), (None, 5)],
            name="R", qualifier="r"))
        gmdj = md(ScanTable("B", "b"), ScanTable("R", "r"),
                  [[agg("min", col("r.H"), "m")]],
                  [col("b.K") == col("r.K")])
        assert_identical(gmdj, catalog, expect_fallback="object-encoded")

    def test_int_sum_overflow_falls_back_exactly(self):
        huge = 2 ** 61
        catalog = Catalog()
        catalog.create_table("B", Relation.from_columns(
            [("K", DataType.INTEGER)], [(0,)], name="B", qualifier="b"))
        catalog.create_table("R", Relation.from_columns(
            [("K", DataType.INTEGER), ("V", DataType.INTEGER)],
            [(0, huge), (0, huge), (0, huge), (0, -7)],
            name="R", qualifier="r"))
        gmdj = md(ScanTable("B", "b"), ScanTable("R", "r"),
                  [[agg("sum", col("r.V"), "s")]],
                  [col("b.K") == col("r.K")])
        python_result, _, numpy_result, _, _ = run_both_kernels(
            gmdj, catalog)
        assert numpy_result.rows == python_result.rows
        assert numpy_result.rows[0][-1] == 3 * huge - 7  # exact bigint

    def test_nan_min_max_falls_back(self):
        catalog = Catalog()
        catalog.create_table("B", Relation.from_columns(
            [("K", DataType.INTEGER)], [(0,)], name="B", qualifier="b"))
        catalog.create_table("R", Relation.from_columns(
            [("K", DataType.INTEGER), ("F", DataType.FLOAT)],
            [(0, 2.5), (0, float("nan")), (0, -1.0)],
            name="R", qualifier="r"))
        gmdj = md(ScanTable("B", "b"), ScanTable("R", "r"),
                  [[agg("min", col("r.F"), "lo"),
                    agg("max", col("r.F"), "hi")]],
                  [col("b.K") == col("r.K")])
        python_result, _, numpy_result, _, _ = run_both_kernels(
            gmdj, catalog)
        assert numpy_result.rows == python_result.rows

    def test_hash_keys_follow_python_equality(self):
        # The bucket lookup this replaces was a dict probe: 1 == 1.0 ==
        # True, a string never equals a number, a NULL component never
        # matches, and duplicate base keys fan out.
        catalog = Catalog()
        catalog.create_table("B", Relation.from_columns(
            [("F", DataType.FLOAT), ("T", DataType.BOOLEAN),
             ("S", DataType.STRING)],
            [(1.0, True, "1"), (1.0, True, "1"), (2.5, False, "x"),
             (None, True, "1"), (0.0, None, None), (-0.0, False, "0")],
            name="B", qualifier="b"))
        catalog.create_table("R", Relation.from_columns(
            [("K", DataType.INTEGER), ("W", DataType.STRING)],
            [(1, "1"), (0, "0"), (2, "x"), (None, "1"), (1, None), (1, "1")],
            name="R", qualifier="r"))
        gmdj = md(ScanTable("B", "b"), ScanTable("R", "r"),
                  [[count_star("float_int")], [count_star("bool_int")],
                   [count_star("str_int")], [count_star("two_part")]],
                  [col("b.F") == col("r.K"), col("b.T") == col("r.K"),
                   col("b.S") == col("r.K"),
                   (col("b.F") == col("r.K")) & (col("b.S") == col("r.W"))])
        assert_identical(gmdj, catalog)
        _, _, numpy_result, _, _ = run_both_kernels(gmdj, catalog)
        assert [row[3:] for row in numpy_result.rows] == [
            (3, 3, 0, 2), (3, 3, 0, 2), (0, 1, 0, 0),
            (0, 3, 0, 0), (1, 0, 0, 0), (1, 1, 0, 1)]

    def test_int64_extremes_are_ordinary_min_max_values(self):
        # The arrays start from sentinels; the extreme int64 values must
        # still win (or lose) like any other value.
        low, high = -(2 ** 63), 2 ** 63 - 1
        catalog = Catalog()
        catalog.create_table("B", Relation.from_columns(
            [("K", DataType.INTEGER)], [(0,), (1,), (2,)],
            name="B", qualifier="b"))
        catalog.create_table("R", Relation.from_columns(
            [("K", DataType.INTEGER), ("V", DataType.INTEGER)],
            [(0, low), (1, high), (0, None), (1, 5)],
            name="R", qualifier="r"))
        gmdj = md(ScanTable("B", "b"), ScanTable("R", "r"),
                  [[agg("min", col("r.V"), "lo"),
                    agg("max", col("r.V"), "hi")]],
                  [col("b.K") == col("r.K")])
        assert_identical(gmdj, catalog)
        _, _, numpy_result, _, _ = run_both_kernels(gmdj, catalog)
        assert numpy_result.rows == [(0, low, low), (1, 5, high),
                                     (2, None, None)]

    def test_completion_run_stays_on_arrays(self):
        # Completion is truncation at each base tuple's first completion
        # row: the run never leaves the array kernel, and equals the row
        # kernel on rows, order and every counter.
        catalog, _, _ = null_heavy_catalog()
        from repro.algebra.nested import Exists, NestedSelect, Subquery

        query = NestedSelect(
            ScanTable("B", "b"),
            Exists(Subquery(ScanTable("R", "r"),
                            (col("r.K") == col("b.K"))
                            & (col("r.V") > lit(80))),
                   negated=True),
        )
        plan = subquery_to_gmdj(query, catalog, optimize=True)
        assert any(isinstance(node, SelectGMDJ)
                   for node in _walk(plan)), "expected a completion plan"
        with collect() as row_stats:
            row_result = evaluate_plan(plan, catalog)
        tracer = Tracer()
        with collect() as numpy_stats, tracing(tracer):
            numpy_result = evaluate_plan_vectorized(
                plan, catalog, None, backend="numpy")
        assert numpy_result.rows == row_result.rows
        assert numpy_stats.snapshot() == row_stats.snapshot()
        assert row_stats.completed_tuples > 0
        scans = tracer.trace().find(kind="detail_scan")
        assert scans and not any(
            scan.attrs.get("fallbacks") for scan in scans)


def _walk(node):
    yield node
    for child in getattr(node, "children", lambda: [])():
        yield from _walk(child)


# -- completion on arrays -------------------------------------------------------

NEQ = col("r.K") != col("b.K")

#: ``(restrictive, weak)`` θ of the ALL translation over Figure 4's
#: ``<>``: the weak block plus one range, in either orientation.
FIGURE4_PAIRS = [(NEQ & (col("r.Y") > col("b.X")), NEQ),
                 (NEQ & (col("b.X") >= col("r.Y")), NEQ)]

#: Scan blocks (no equality to hash): Figure 4's ``<>`` alone and with
#: either orientation of a one-sided range (the ALL pair's two blocks,
#: the NOT EXISTS twin), a range alone, a range over a float column that
#: sometimes holds NaN (declined to the pair walk then), and a
#: detail-only residual (a scan block under a rule, an invariant block
#: without one).  A case drawn from these alone can take the range form
#: under a completion rule, which couples every block.
SCAN_THETAS = [
    NEQ,
    *(restrictive for restrictive, _ in FIGURE4_PAIRS),
    col("r.Y") >= col("b.X"),
    NEQ & (col("r.Z") < col("b.X")),
    col("r.Y") > lit(2),
]

#: θ shapes the property mixes in one GMDJ: single- and two-component
#: hash keys (int and dictionary-coded), hash + pair residual, hash + a
#: detail-only residual (Figure 2's ``o.totalprice > 430000``), alone
#: and beside a conjunct that reads the base, key components with a
#: constant side (a row mask / a base mask on top of the shared key
#: structure, also next to a detail-only conjunct; a constant-only key
#: list), and the scan blocks.  Several of them factor to the same key
#: list ``b.K = r.K`` and so share one key structure beside the ones
#: that do not.
THETAS = [
    col("b.K") == col("r.K"),
    (col("b.K") == col("r.K")) & (col("r.Y") > col("b.X")),
    (col("b.K") == col("r.K")) & (col("r.Y") > lit(2)),
    (col("b.K") == col("r.K")) & (col("r.Y") > lit(2))
    & (col("r.Z") < col("b.X")),
    (col("b.K") == col("r.K")) & (col("r.T") == lit("aa"))
    & (col("r.G") > lit(0)),
    (col("b.K") == col("r.K")) & (col("b.S") == col("r.T")),
    (col("b.K") == col("r.K")) & (col("r.T") == lit("aa")),
    (col("b.K") == col("r.K")) & (col("b.S") == lit("bb")),
    col("b.S") == col("r.T"),
    lit(1) == col("r.K"),
    *SCAN_THETAS,
]

#: A residual over the always-object-encoded ``r.H``: no array form, so
#: the block gives up (under a rule: the whole scan).
GIVES_UP = (col("b.K") == col("r.K")) & (col("r.H") > lit(0))

#: Riders next to each block's count(*) (output ``x<i>``): they make the
#: partial aggregates of assured tuples visible in the output rows, an
#: empty range shows as NULL, and ``r.Y`` may sum beyond 2**53.
RIDERS = [
    None,
    lambda i: agg("sum", col("r.G"), f"x{i}"),
    lambda i: agg("sum", col("r.Y"), f"x{i}"),
    lambda i: agg("min", col("r.Y"), f"x{i}"),
    lambda i: agg("max", col("r.G"), f"x{i}"),
    lambda i: agg("avg", col("r.Y"), f"x{i}"),
    lambda i: agg("count", col("r.T"), f"x{i}"),
]


def per_value_rider(i):
    """String MIN keeps Python ordering: accumulated per value, beside
    the block's array-form count(*)."""
    return agg("min", col("r.T"), f"x{i}")


#: Key domains on both sides of the dense/sparse lookup choice:
#: ``(base K type, detail K type, values)``.  NULL and duplicate keys
#: come with every one of them (tiny value sets, short lists).
KEY_DOMAINS = {
    "small": (DataType.INTEGER, DataType.INTEGER, [0, 1, 2]),
    "negative": (DataType.INTEGER, DataType.INTEGER, [-3, -1, 0, 2]),
    "extreme": (DataType.INTEGER, DataType.INTEGER,
                [-2 ** 63, -2 ** 63 + 1, 0, 2 ** 63 - 1]),
    "sparse": (DataType.INTEGER, DataType.INTEGER,
               [-2 ** 60, 0, 7, 2 ** 60, 2 ** 60 + 1]),
    "float=int": (DataType.INTEGER, DataType.FLOAT, [0, 1, 2, 1.5, -0.0]),
    "bool=int": (DataType.BOOLEAN, DataType.INTEGER, [0, 1, 2, True, False]),
}


def _typed(dtype, value):
    if value is None:
        return None
    return {DataType.INTEGER: int, DataType.FLOAT: float,
            DataType.BOOLEAN: bool}[dtype](value)


@st.composite
def dense_databases(draw):
    """B/R over tiny domains: NULL keys, duplicate base keys and base
    tuples with several matches are the rule, not the exception (half
    the draws hold a key at least two base tuples share, so a hash
    block fans out); either side may be empty.  ``zz`` is a base word
    the detail dictionary never holds; ``r.Y`` is sometimes large
    enough that sums pass 2**53; ``r.H`` is always object-encoded;
    ``r.Z`` may hold NaN."""
    base_type, detail_type, values = KEY_DOMAINS[
        draw(st.sampled_from(sorted(KEY_DOMAINS)))]
    key = st.one_of(st.none(), st.sampled_from(values))
    number = st.one_of(st.none(), st.integers(0, 4))
    large = st.one_of(number, st.sampled_from(
        [2 ** 53 + 1, 2 ** 52 + 3, -2 ** 53 - 5]))
    word = st.one_of(st.none(), st.sampled_from(["aa", "bb"]))
    base_word = st.one_of(word, st.just("zz"))
    real = st.one_of(st.none(), st.sampled_from([-1.5, 0.0, 0.1, 2.25]))
    maybe_nan = st.one_of(real, st.just(float("nan")))
    huge = st.just(2 ** 70)
    base_rows = draw(st.lists(st.tuples(key, number, base_word), max_size=6))
    if draw(st.booleans()):
        # A key two base tuples share: its detail rows fan out to both.
        twin = draw(st.sampled_from(values))
        base_rows += draw(st.lists(st.tuples(st.just(twin), number,
                                             base_word),
                                   min_size=2, max_size=2))
    detail_rows = draw(st.lists(
        st.tuples(key, draw(st.sampled_from([number, large])), word, real,
                  huge, maybe_nan), max_size=14))
    catalog = Catalog()
    catalog.create_table("B", Relation.from_columns(
        [("K", base_type), ("X", DataType.INTEGER), ("S", DataType.STRING)],
        [(_typed(base_type, k), x, s) for k, x, s in base_rows]))
    catalog.create_table("R", Relation.from_columns(
        [("K", detail_type), ("Y", DataType.INTEGER),
         ("T", DataType.STRING), ("G", DataType.FLOAT),
         ("H", DataType.INTEGER), ("Z", DataType.FLOAT)],
        [(_typed(detail_type, k), *rest) for k, *rest in detail_rows]))
    return catalog


@st.composite
def completion_cases(draw):
    """``(gmdj, rule, selection, reported)``: 1-4 blocks, one rule shape
    (or none: a fused selection without completion, invariant blocks
    allowed) and whether the case holds something the array kernel
    reports in ``fallbacks`` — a per-value rider, a block that gives
    up).  Half the cases hold scan blocks only, with riders the range
    form sums exactly, one block under ``need_positive`` alone, and a
    pair often in Figure 4's ALL shape: so the range form meets every
    rule it takes."""
    shape = draw(st.sampled_from(
        ["zero", "pair", "zero+pair", "positive", "at_least",
         "positive+at_least", "inert", "none", "none"]))
    reported = draw(st.sampled_from([None, None, "rider", "block"]))
    scanned = reported is None and draw(st.booleans())
    n_blocks = 1 if scanned and shape == "positive" \
        else draw(st.integers(2 if "pair" in shape else 1, 4))
    blocks = st.integers(0, n_blocks - 1)
    odd_one = draw(blocks)
    specs, thetas = [], []
    for i in range(n_blocks):
        rider = draw(st.sampled_from(RIDERS[:1] + RIDERS[2:] if scanned
                                     else RIDERS))
        if reported == "rider" and i == odd_one:
            rider = per_value_rider
        specs.append([count_star(f"c{i}")]
                     + ([rider(i)] if rider else []))
        thetas.append(GIVES_UP if reported == "block" and i == odd_one
                      else draw(st.sampled_from(
                          SCAN_THETAS if scanned else THETAS)))
    rule = None if shape == "none" else CompletionRule()
    if "zero" in shape:
        rule.must_be_zero = draw(st.lists(blocks, min_size=1, max_size=2))
    if "pair" in shape:
        rule.pair_equal = draw(st.lists(
            st.permutations(range(n_blocks)).map(lambda p: tuple(p[:2])),
            min_size=1, max_size=2))
        if scanned and draw(st.booleans()):
            restrictive, weak = rule.pair_equal[0]
            thetas[restrictive], thetas[weak] = draw(
                st.sampled_from(FIGURE4_PAIRS))
    gmdj = md(ScanTable("B", "b"), ScanTable("R", "r"), specs, thetas)
    if "positive" in shape:
        rule.need_positive = draw(st.lists(blocks, min_size=1, max_size=2))
    if "at_least" in shape:
        rule.need_at_least = draw(st.lists(
            st.tuples(blocks, st.integers(2, 3)), min_size=1, max_size=2))
    if rule is not None:
        rule.exhaustive = rule.aggregates_projected = \
            bool(rule.need_positive or rule.need_at_least)
    # The fused selection reads a count, and — when block 0 has one — a
    # rider that is NULL over an empty range (UNKNOWN drops the row).
    selection = col("c0") >= lit(draw(st.integers(0, 2)))
    if len(specs[0]) > 1 and specs[0][1].function != "min" \
            and draw(st.booleans()):
        unknown_on_empty = col("x0") > lit(1)
        selection = draw(st.sampled_from([
            unknown_on_empty, selection & unknown_on_empty,
            selection | unknown_on_empty]))
    return gmdj, rule, selection, reported


def three_kernel_scans(catalog, gmdj, rule, selection):
    """Run one node on the row, python and numpy kernels — the last at
    tile sizes that cut every base tuple's pairs mid-way and at the real
    one — asserting the row kernel's rows (so: order, and the partial
    aggregates of assured tuples) and its full IOStats snapshot each
    time; yields ``(tile, detail_scan span)`` per numpy run.  At 1, 2
    and 7 a completion scan over hash blocks walks both phases of its
    schedule on a few dozen rows: a first tile of that many pairs, then
    tiles of 8x as many."""
    base = gmdj.base.evaluate(catalog)
    detail = gmdj.detail.evaluate(catalog)
    schema = gmdj.schema(catalog)
    with collect() as row_stats:
        expected = run_gmdj(base, detail, gmdj, schema, rule, selection)
    with collect() as python_stats:
        python_result = run_gmdj_vectorized(
            base, detail, gmdj, schema, rule, selection,
            chunk_size=3, backend="python")
    assert python_result.rows == expected.rows
    assert python_stats.snapshot() == row_stats.snapshot()
    for tile in (1, 2, 7, npkernel.TILE_PAIRS):
        tracer = Tracer()
        with pytest.MonkeyPatch.context() as patch, \
                collect() as numpy_stats, tracing(tracer):
            patch.setattr(npkernel, "TILE_PAIRS", tile)
            numpy_result = run_gmdj_vectorized(
                base, detail, gmdj, schema, rule, selection,
                backend="numpy")
        assert numpy_result.rows == expected.rows, tile
        assert numpy_stats.snapshot() == row_stats.snapshot(), tile
        (scan,) = tracer.trace().find(kind="detail_scan")
        yield tile, scan


class TestCompletionOnArrays:
    @settings(max_examples=250, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(catalog=dense_databases(), case=completion_cases())
    def test_numpy_equals_python_equals_row(self, catalog, case):
        gmdj, rule, selection, reported = case
        for tile, scan in three_kernel_scans(catalog, gmdj, rule, selection):
            # Objects exist only where a reason is reported.  (Whether
            # the residual over r.H is ever evaluated depends on the
            # data: an empty side never reaches it.)
            fallbacks = scan.attrs.get("fallbacks", ())
            if reported == "block":
                assert all("object-encoded" in reason or "selection" in reason
                           for reason in fallbacks), tile
            else:
                assert bool(fallbacks) == (reported == "rider"), tile

    def test_assurance_waits_for_the_last_threshold(self):
        # Block 1 reaches its threshold at row 0, block 0 only at row 3
        # of the same tile: t_b is the *later* row, and everything both
        # blocks match up to it is accumulated.
        catalog = Catalog()
        catalog.create_table("B", Relation.from_columns(
            [("K", DataType.INTEGER)], [(0,)]))
        catalog.create_table("R", Relation.from_columns(
            [("K", DataType.INTEGER), ("Y", DataType.INTEGER)],
            [(0, 1), (0, 2), (0, 3), (0, 9), (0, 4)]))
        gmdj = md(ScanTable("B", "b"), ScanTable("R", "r"),
                  [[count_star("c0")], [count_star("c1")]],
                  [(col("b.K") == col("r.K")) & (col("r.Y") > lit(5)),
                   col("b.K") == col("r.K")])
        rule = CompletionRule(need_positive=[0, 1], exhaustive=True,
                              aggregates_projected=True)
        base = gmdj.base.evaluate(catalog)
        detail = gmdj.detail.evaluate(catalog)
        schema = gmdj.schema(catalog)
        with collect() as row_stats:
            expected = run_gmdj(base, detail, gmdj, schema, rule, None)
        with collect() as numpy_stats:
            result = run_gmdj_vectorized(base, detail, gmdj, schema, rule,
                                         None, backend="numpy")
        assert result.rows == expected.rows == [(0, 1, 4)]
        assert numpy_stats.snapshot() == row_stats.snapshot()

    def test_both_phases_of_the_tile_schedule_keep_rows_and_counters(self):
        # Fanout 1 over 40 rows, 27 of them admitted (key 5 has no base
        # tuple): at tile t the first tile builds t pairs and every later
        # one 8t, so the scan walks 1 + ceil((27 - t) / 8t) tiles.  Base
        # 1 has no detail row, so the scan walks to the end; bases 0 and
        # 2 complete inside the second phase (their third match is row
        # 6 / 7), with partial sums and truncated residual evaluations —
        # counted over every candidate row, admitted or not — the row
        # kernel's.
        catalog = Catalog()
        catalog.create_table("B", Relation.from_columns(
            [("K", DataType.INTEGER), ("X", DataType.INTEGER)],
            [(0, -1), (1, -1), (2, -1)]))
        catalog.create_table("R", Relation.from_columns(
            [("K", DataType.INTEGER), ("Y", DataType.INTEGER)],
            [((0, 2, 5)[i % 3], i) for i in range(40)]))
        gmdj = md(ScanTable("B", "b"), ScanTable("R", "r"),
                  [[count_star("c0"), agg("sum", col("r.Y"), "s0")]],
                  [(col("b.K") == col("r.K")) & (col("r.Y") > col("b.X"))])
        rule = CompletionRule(need_at_least=[(0, 3)], exhaustive=True,
                              aggregates_projected=True)
        for twin in (rule, None):
            # The rule-free twin walks the same tiles: completion does
            # not shape the walk.
            tiles = {tile: scan.attrs["tiles"] for tile, scan in
                     three_kernel_scans(catalog, gmdj, twin, None)}
            assert tiles == {1: 5, 2: 3, 7: 2, npkernel.TILE_PAIRS: 1}

    @staticmethod
    def _scan_directly(catalog, gmdj, rule):
        """Call the array kernel the way ``run_gmdj_vectorized`` does."""
        base = gmdj.base.evaluate(catalog)
        detail = gmdj.detail.evaluate(catalog)
        combined = base.schema.concat(detail.schema)
        runtimes = [
            _BlockRuntime(i, block, base, detail.schema, combined,
                          allow_invariant=False)
            for i, block in enumerate(gmdj.blocks)
        ]
        status = bytearray(len(base.rows))
        with collect() as stats:
            scan = npkernel.run_numpy_scan(
                cached_columnar(detail), runtimes, gmdj.blocks, base,
                combined, status, stats, rule)
        return scan, status, stats

    def assert_untouched_then_identical(self, catalog, gmdj, rule,
                                        expect_reason):
        scan, status, stats = self._scan_directly(catalog, gmdj, rule)
        reasons = scan.reasons
        # Completion couples the blocks: all of them go back, and
        # nothing was counted, finalized or completed on the way (the
        # one index_builds per hash block is the runtimes', not the
        # scan's).
        assert len(scan.python_blocks) == len(gmdj.blocks)
        assert len(reasons) == 1 and reasons[0].startswith("block ")
        assert expect_reason in reasons[0]
        assert not any(stats.snapshot().values())
        assert not any(status)
        assert not scan.columns
        # ... and the fallback then produces the row kernel's run.
        base = gmdj.base.evaluate(catalog)
        detail = gmdj.detail.evaluate(catalog)
        schema = gmdj.schema(catalog)
        selection = col("c0") == lit(0)
        with collect() as row_stats:
            expected = run_gmdj(base, detail, gmdj, schema, rule, selection)
        tracer = Tracer()
        with collect() as numpy_stats, tracing(tracer):
            result = run_gmdj_vectorized(base, detail, gmdj, schema, rule,
                                         selection, backend="numpy")
        assert result.rows == expected.rows
        assert numpy_stats.snapshot() == row_stats.snapshot()
        (span,) = tracer.trace().find(kind="detail_scan")
        assert span.attrs["fallbacks"] == tuple(reasons)
        return scan

    def test_unsupported_theta_under_a_rule_leaves_no_partial_state(self):
        # An object-encoded (>64-bit) column in θ has no array form.
        catalog = Catalog()
        catalog.create_table("B", Relation.from_columns(
            [("K", DataType.INTEGER)], [(0,), (1,), (1,), (None,)],
            name="B", qualifier="b"))
        catalog.create_table("R", Relation.from_columns(
            [("K", DataType.INTEGER), ("H", DataType.INTEGER)],
            [(0, 3), (1, 2 ** 70), (1, None), (None, 5), (0, -4)],
            name="R", qualifier="r"))
        gmdj = md(ScanTable("B", "b"), ScanTable("R", "r"),
                  [[count_star("c0")],
                   [count_star("c1"), agg("max", col("r.K"), "m")]],
                  [(col("b.K") == col("r.K")) & (col("r.H") > lit(0)),
                   col("b.K") == col("r.K")])
        self.assert_untouched_then_identical(
            catalog, gmdj, CompletionRule(must_be_zero=[0]),
            "object-encoded")

    def test_unsupported_data_in_a_later_tile_leaves_no_partial_state(
            self, monkeypatch):
        # r.V * b.X is exact in int64 for the first rows only: the
        # overflow guard trips after earlier tiles have accumulated.
        monkeypatch.setattr(npkernel, "TILE_PAIRS", 2)
        catalog = Catalog()
        catalog.create_table("B", Relation.from_columns(
            [("K", DataType.INTEGER), ("X", DataType.INTEGER)],
            [(0, 2), (1, 3)], name="B", qualifier="b"))
        catalog.create_table("R", Relation.from_columns(
            [("K", DataType.INTEGER), ("V", DataType.INTEGER)],
            [(0, 1), (1, 5), (0, 7), (1, 2 ** 61), (0, 9)],
            name="R", qualifier="r"))
        gmdj = md(ScanTable("B", "b"), ScanTable("R", "r"),
                  [[count_star("c0"), agg("sum", col("r.V"), "s")],
                   [count_star("c1")]],
                  [(col("b.K") == col("r.K"))
                   & (col("r.V") * col("b.X") > lit(10)),
                   (col("b.K") == col("r.K")) & (col("r.V") < lit(0))])
        # Block 1 never matches, so every base tuple is still active
        # (and has accumulated into block 0) when the guard trips — in
        # the second tile, the first of the schedule's larger ones.
        scan = self.assert_untouched_then_identical(
            catalog, gmdj, CompletionRule(must_be_zero=[1]), "overflow")
        assert scan.tiles == 2


class TestRangeForm:
    """Scan blocks answered by sorted search instead of pairs, held to
    the row kernel's rows and every counter under each rule the range
    form takes, over NULL keys on both sides, NULL ``y`` and ``x``, NaN
    base ``x`` and duplicate detail keys."""

    @staticmethod
    def catalog(nan=False):
        catalog = Catalog()
        catalog.create_table("B", Relation.from_columns(
            [("K", DataType.INTEGER), ("X", DataType.FLOAT)],
            [(1, 2.0), (2, 0.5), (None, 1.0), (3, None), (1, 4.0),
             (4, -1.0)] + [(5, float("nan"))] * nan))
        catalog.create_table("R", Relation.from_columns(
            [("K", DataType.INTEGER), ("Y", DataType.INTEGER),
             ("T", DataType.STRING)],
            [(1, 3, "aa"), (2, 1, None), (None, 5, "bb"), (1, None, "aa"),
             (3, 4, "bb"), (1, 0, None), (4, 2, "aa"), (2, None, "cc"),
             (3, 1, "aa")]))
        return catalog

    RIDERS = [count_star("c0"), agg("sum", col("r.Y"), "s"),
              agg("min", col("r.Y"), "lo"), agg("max", col("r.Y"), "hi"),
              agg("avg", col("r.Y"), "a"), agg("count", col("r.T"), "n")]

    @pytest.mark.parametrize("theta", [
        NEQ, *(restrictive for restrictive, _ in FIGURE4_PAIRS),
        col("r.Y") >= col("b.X"), NEQ & (col("r.Y") < col("b.X")),
        NEQ & (col("r.T") != lit("bb")) & (col("b.X") > lit(0)),
    ], ids=repr)
    @pytest.mark.parametrize("rule", [
        None, CompletionRule(must_be_zero=[0]),
        CompletionRule(need_positive=[0], exhaustive=True,
                       aggregates_projected=True),
    ], ids=["no rule", "doom", "assure"])
    def test_one_block(self, theta, rule):
        gmdj = md(ScanTable("B", "b"), ScanTable("R", "r"),
                  [self.RIDERS], [theta])
        for _, scan in three_kernel_scans(self.catalog(), gmdj, rule,
                                          col("c0") >= lit(1)):
            assert scan.attrs["forms"] == ("range",)

    @pytest.mark.parametrize("restrictive, weak", FIGURE4_PAIRS, ids=repr)
    def test_figure4_all_pair(self, restrictive, weak):
        gmdj = md(ScanTable("B", "b"), ScanTable("R", "r"),
                  [[count_star("c0"), agg("max", col("r.Y"), "hi")],
                   [count_star("c1")]], [restrictive, weak])
        rule = CompletionRule(pair_equal=[(0, 1)])
        for _, scan in three_kernel_scans(self.catalog(), gmdj, rule,
                                          col("c0") == col("c1")):
            assert scan.attrs["forms"] == ("range", "range")

    def test_nan_base_x_matches_nothing_and_dooms_on_every_row(self):
        # (NaN never equals itself, so rows are compared by repr.)
        catalog = self.catalog(nan=True)
        gmdj = md(ScanTable("B", "b"), ScanTable("R", "r"),
                  [[count_star("c0"), agg("min", col("r.Y"), "lo")],
                   [count_star("c1")]], list(FIGURE4_PAIRS[1]))
        fused = SelectGMDJ(gmdj, col("c0") == col("c1"),
                           CompletionRule(pair_equal=[(0, 1)]))
        for plan, nan_row in [(gmdj, "(5, nan, 0, None, 8)"), (fused, None)]:
            with collect() as row_stats:
                row_rows = repr(evaluate_plan(plan, catalog).rows)
            with collect() as numpy_stats:
                numpy_rows = repr(evaluate_plan_vectorized(
                    plan, catalog, None, backend="numpy").rows)
            assert numpy_rows == row_rows
            assert numpy_stats.snapshot() == row_stats.snapshot()
            assert (nan_row in row_rows) if nan_row else "nan" not in row_rows


class TestKeysStateAndRowsStayColumns:
    """Directed twins of the property's corners: what the array kernel
    reports about its key structures, and the emit's exactness."""

    @staticmethod
    def run(catalog, gmdj, rule=None, selection=None):
        base = gmdj.base.evaluate(catalog)
        detail = gmdj.detail.evaluate(catalog)
        schema = gmdj.schema(catalog)
        with collect() as row_stats:
            expected = run_gmdj(base, detail, gmdj, schema, rule, selection)
        tracer = Tracer()
        with collect() as numpy_stats, tracing(tracer):
            result = run_gmdj_vectorized(base, detail, gmdj, schema, rule,
                                         selection, backend="numpy")
        assert result.rows == expected.rows
        assert numpy_stats.snapshot() == row_stats.snapshot()
        (scan,) = tracer.trace().find(kind="detail_scan")
        return result.rows, scan

    @staticmethod
    def catalog(base_rows, detail_rows, key_type=DataType.INTEGER):
        catalog = Catalog()
        catalog.create_table("B", Relation.from_columns(
            [("K", key_type), ("S", DataType.STRING)], base_rows))
        catalog.create_table("R", Relation.from_columns(
            [("K", key_type), ("Y", DataType.INTEGER),
             ("T", DataType.STRING)], detail_rows))
        return catalog

    def test_three_blocks_share_one_key_list_beside_one_that_does_not(self):
        catalog = self.catalog(
            [(1, "aa"), (2, "zz"), (2, "bb"), (None, "aa")],
            [(1, 5, "aa"), (2, 1, "bb"), (2, 7, None), (3, 9, "aa"),
             (None, 2, "bb")])
        gmdj = md(ScanTable("B", "b"), ScanTable("R", "r"),
                  [[count_star(f"c{i}")] for i in range(4)],
                  [col("b.K") == col("r.K"),
                   (col("b.K") == col("r.K")) & (col("r.Y") > lit(4)),
                   (col("b.K") == col("r.K")) & (col("r.T") == lit("bb")),
                   col("b.S") == col("r.T")])
        rows, scan = self.run(catalog, gmdj)
        assert rows == [(1, "aa", 1, 1, 0, 2), (2, "zz", 2, 1, 1, 0),
                        (2, "bb", 2, 1, 1, 2), (None, "aa", 0, 0, 0, 2)]
        assert scan.attrs["shared_keys"] == (3, 3, 3, 1)
        assert scan.attrs["key_lookup"] == ("direct",) * 4
        assert not scan.attrs.get("fallbacks")

    def test_sparse_and_float_keys_are_searched_not_addressed(self):
        sparse = self.catalog([(0, "a"), (2 ** 60, "b"), (-2 ** 63, "c")],
                              [(2 ** 60, 1, "x"), (-2 ** 63, 2, "x"),
                               (2 ** 63 - 1, 3, "x")])
        gmdj = md(ScanTable("B", "b"), ScanTable("R", "r"),
                  [[count_star("c")]], [col("b.K") == col("r.K")])
        rows, scan = self.run(sparse, gmdj)
        assert [row[-1] for row in rows] == [0, 1, 1]
        assert scan.attrs["key_lookup"] == ("sorted",)
        floats = self.catalog([(0.0, "a"), (1.5, "b")],
                              [(-0.0, 1, "x"), (1.5, 2, "x"), (1.25, 3, "x")],
                              key_type=DataType.FLOAT)
        rows, scan = self.run(floats, gmdj)
        assert [row[-1] for row in rows] == [1, 1]
        assert scan.attrs["key_lookup"] == ("sorted",)

    def test_empty_ranges_finalize_to_zero_and_null(self):
        catalog = self.catalog([(1, "a"), (9, "b")], [(1, 4, "t"), (1, 6, "t")])
        gmdj = md(ScanTable("B", "b"), ScanTable("R", "r"),
                  [[count_star("c"), agg("count", col("r.T"), "n"),
                    agg("sum", col("r.Y"), "s"), agg("avg", col("r.Y"), "a"),
                    agg("min", col("r.Y"), "lo"),
                    agg("max", col("r.Y"), "hi")]],
                  [col("b.K") == col("r.K")])
        rows, scan = self.run(catalog, gmdj)
        assert rows == [(1, "a", 2, 2, 10, 5.0, 4, 6),
                        (9, "b", 0, 0, None, None, None, None)]
        assert not scan.attrs.get("fallbacks")

    def test_avg_of_ints_beyond_2_53_divides_as_python_does(self):
        values = [2 ** 55 + 1, 2 ** 55 + 3, 7]
        catalog = self.catalog([(1, "a")], [(1, y, "t") for y in values])
        gmdj = md(ScanTable("B", "b"), ScanTable("R", "r"),
                  [[agg("avg", col("r.Y"), "a")]], [col("b.K") == col("r.K")])
        rows, scan = self.run(catalog, gmdj)
        assert rows == [(1, "a", sum(values) / 3)]
        # Dividing the total rounded to float64 gives another number.
        assert rows[0][-1] != float(sum(values)) / 3
        assert not scan.attrs.get("fallbacks")

    def test_unknown_selection_drops_the_row_and_assured_rows_bypass_it(self):
        catalog = self.catalog([(1, "a"), (2, "b"), (3, "c")],
                               [(1, 4, "t"), (2, 0, "t"), (2, 1, "t")])
        gmdj = md(ScanTable("B", "b"), ScanTable("R", "r"),
                  [[count_star("c"), agg("sum", col("r.Y"), "s")]],
                  [col("b.K") == col("r.K")])
        # No rule: base 3's SUM is NULL, the selection UNKNOWN.
        rows, _ = self.run(catalog, gmdj, None, col("s") >= lit(1))
        assert rows == [(1, "a", 1, 4), (2, "b", 2, 1)]
        # Assured at their first match: base 2 is emitted with the
        # partial SUM 0 the selection would have refused.
        rule = CompletionRule(need_positive=[0], exhaustive=True,
                              aggregates_projected=True)
        rows, scan = self.run(catalog, gmdj, rule, col("s") >= lit(1))
        assert rows == [(1, "a", 1, 4), (2, "b", 1, 0)]
        assert not scan.attrs.get("fallbacks")

    def test_per_value_rider_and_given_up_block_beside_array_blocks(self):
        catalog = Catalog()
        catalog.create_table("B", Relation.from_columns(
            [("K", DataType.INTEGER)], [(1,), (2,)]))
        catalog.create_table("R", Relation.from_columns(
            [("K", DataType.INTEGER), ("T", DataType.STRING),
             ("H", DataType.INTEGER)],
            [(1, "pear", 2 ** 70), (1, "fig", 1), (2, "kiwi", -5)]))
        gmdj = md(ScanTable("B", "b"), ScanTable("R", "r"),
                  [[count_star("c0"), agg("min", col("r.T"), "m")],
                   [count_star("c1")]],
                  [col("b.K") == col("r.K"),
                   (col("b.K") == col("r.K")) & (col("r.H") > lit(0))])
        rows, scan = self.run(catalog, gmdj, None, col("c0") >= lit(1))
        assert rows == [(1, 2, "fig", 2), (2, 1, "kiwi", 0)]
        reasons = scan.attrs["fallbacks"]
        assert any(r.startswith("block 1: object-encoded") for r in reasons)
        assert any("block 0 m: string min/max" in r for r in reasons)
        # The selection reads only the array-form count: no third reason.
        assert len(reasons) == 2
        # ... and one that reads the per-value column says so.
        _, scan = self.run(catalog, gmdj, None, col("m") >= lit("g"))
        assert any(r.startswith("selection: ")
                   for r in scan.attrs["fallbacks"])


def test_a_rule_does_not_change_how_hash_blocks_tile_the_scan():
    # Three tiles' worth of rows at the real TILE_PAIRS.  Base key 9 has
    # no detail row, so no scan ends before its last row.  A hash block's
    # tiles are cut by the pairs θ admits, not by rows.
    rows = 3 * npkernel.TILE_PAIRS
    catalog = Catalog()
    catalog.create_table("B", Relation.from_columns(
        [("K", DataType.INTEGER)], [(k,) for k in range(10)]))
    catalog.create_table("R", Relation.from_columns(
        [("K", DataType.INTEGER), ("Y", DataType.INTEGER)],
        [(i % 9, i % 1000) for i in range(rows)]))

    def scan_of(theta, rule, selection):
        gmdj = md(ScanTable("B", "b"), ScanTable("R", "r"),
                  [[count_star("c")]], [theta])
        _, scan = TestKeysStateAndRowsStayColumns.run(catalog, gmdj, rule,
                                                      selection)
        assert not scan.attrs.get("fallbacks")
        return scan.attrs

    exists = CompletionRule(need_positive=[0], exhaustive=True,
                            aggregates_projected=True)
    # Figure 2's shape: θ admits the 216 rows with Y > 990 (9 a
    # thousand), one pair each, so the scan is one tile, rule or none.
    sparse = (col("b.K") == col("r.K")) & (col("r.Y") > lit(990))
    for rule in (exists, None):
        attrs = scan_of(sparse, rule, col("c") > lit(0))
        assert attrs["rows_admitted"] == attrs["pairs_built"] == (216,)
        assert attrs["tiles"] == 1
    # Every row admitted: the scan takes one TILE_PAIRS tile, then the
    # rest of its pairs in one of 8x, with and without a rule ...
    dense = (col("b.K") == col("r.K")) & (col("r.Y") >= lit(0))
    for rule in (exists, None):
        attrs = scan_of(dense, rule, col("c") > lit(0))
        assert attrs["rows_admitted"] == attrs["pairs_built"] == (rows,)
        assert attrs["tiles"] == 2
    # ... Figure 4's ``<>`` under Thm 4.2 with a doom that never comes
    # builds no pairs: the range form reads R once ...
    doom = CompletionRule(must_be_zero=[0])
    scanned = (col("r.K") != col("b.K")) & (col("r.Y") < lit(0))
    attrs = scan_of(scanned, doom, col("c") == lit(0))
    assert (attrs["forms"], attrs["tiles"]) == (("range",), 1)
    # ... and a twin it declines (two ``<>``) walks ten active bases x
    # rows per tile at TILE_PAIRS, all the way.
    declined = scanned & (col("r.Y") != col("b.K"))
    attrs = scan_of(declined, doom, col("c") == lit(0))
    assert attrs["forms"] == ("pairs",)
    assert attrs["range_declined"] == ("block 0: two <> conjuncts",)
    assert attrs["tiles"] == -(-rows // (npkernel.TILE_PAIRS // 10))


class TestJoinIndex:
    """The key structure between two stored tables is a join index: the
    detail encoding keeps it, and every later scan over the same pair of
    encodings and key columns reuses it, whatever the query.  What is
    per query — a derived operand, a computed key, a constant key side —
    is built every time and never kept."""

    @staticmethod
    def catalog():
        return TestKeysStateAndRowsStayColumns.catalog(
            [(1, "x"), (2, "y"), (2, "x"), (None, "x")],
            [(1, 5, "x"), (2, 7, "y"), (3, 1, "x"), (2, 0, None)])

    @staticmethod
    def join_index(catalog, base, thetas):
        gmdj = md(base, ScanTable("R", "r"),
                  [[count_star(f"c{i}")] for i in range(len(thetas))],
                  thetas)
        _, scan = TestKeysStateAndRowsStayColumns.run(catalog, gmdj)
        return scan.attrs["join_index"]

    def test_scans_over_one_key_share_one_index(self):
        catalog = self.catalog()
        key = col("b.K") == col("r.K")
        with metrics_scope() as registry:
            assert self.join_index(catalog, ScanTable("B", "b"), [key]) \
                == ("built",)
            # Another residual, another alias, two blocks on the key.
            assert self.join_index(
                catalog, ScanTable("B", "c"),
                [(col("c.K") == col("r.K")) & (col("r.Y") > lit(2))]) \
                == ("reused",)
            assert self.join_index(
                catalog, ScanTable("B", "b"),
                [key, key & (col("r.T") == lit("x"))]) \
                == ("reused", "reused")
            # Another key column pair is another index.
            assert self.join_index(catalog, ScanTable("B", "b"),
                                   [col("b.S") == col("r.T")]) == ("built",)
            assert registry.counter("npkernel.join_index_builds").value == 2
            assert registry.counter("npkernel.join_index_reuses").value == 2
        assert len(cached_columnar(catalog.table("R"))._join_indexes) == 2

    @pytest.mark.parametrize("base, theta", [
        (Select(ScanTable("B", "b"), col("b.K") > lit(0)),
         col("b.K") == col("r.K")),
        (ScanTable("B", "b"), col("b.K") + lit(0) == col("r.K")),
        (ScanTable("B", "b"),
         (col("b.K") == col("r.K")) & (col("b.S") == lit("x"))),
    ], ids=["derived base", "computed key", "constant base side"])
    def test_what_is_per_query_is_never_kept(self, base, theta):
        catalog = self.catalog()
        assert self.join_index(catalog, base, [theta]) == ("built",)
        assert self.join_index(catalog, base, [theta]) == ("built",)
        assert cached_columnar(catalog.table("R"))._join_indexes == []

    def test_threads_racing_on_one_detail_encoding_get_their_own_rows(self):
        # More threads than cores, a short switch interval and more base
        # tables than the detail encoding keeps: scans race each other on
        # misses, hits and evictions.  Each base table holds other keys,
        # so an index served to the wrong base would change the rows.
        # Figure 4's ALL pair over each base shares the range indexes —
        # and the first-row scan one builds on first use — on the same
        # encoding, in the same bounded list.
        import sys
        import threading

        catalog = Catalog()
        names = [f"B{i}" for i in range(npkernel.JOIN_INDEXES_KEPT + 2)]
        for shift, name in enumerate(names):
            catalog.create_table(name, Relation.from_columns(
                [("K", DataType.INTEGER)],
                [(k + shift,) for k in range(6)] + [(None,)]))
        catalog.create_table("R", Relation.from_columns(
            [("K", DataType.INTEGER), ("Y", DataType.INTEGER)],
            [(i % 11, i % 7) for i in range(60)]))
        neq = col("r.K") != col("b.K")
        shapes = [
            ([[count_star("c"), agg("sum", col("r.Y"), "s")]],
             [col("b.K") == col("r.K")], None, None),
            ([[count_star("c0")], [count_star("c1")]],
             [neq & (col("r.Y") > col("b.K")), neq],
             CompletionRule(pair_equal=[(0, 1)]), col("c0") == col("c1")),
        ]
        nodes = []
        for name in names:
            for specs, thetas, rule, selection in shapes:
                gmdj = md(ScanTable(name, "b"), ScanTable("R", "r"), specs,
                          thetas)
                base = gmdj.base.evaluate(catalog)
                detail = gmdj.detail.evaluate(catalog)
                schema = gmdj.schema(catalog)
                nodes.append((base, detail, gmdj, schema, rule, selection,
                              run_gmdj(base, detail, gmdj, schema, rule,
                                       selection).rows))
        failures = []

        def scan(offset):
            try:
                for step in range(30):
                    base, detail, gmdj, schema, rule, selection, expected = \
                        nodes[(offset + step) % len(nodes)]
                    rows = run_gmdj_vectorized(base, detail, gmdj, schema,
                                               rule, selection,
                                               backend="numpy").rows
                    if rows != expected:
                        failures.append((gmdj.base, rows))
            except Exception as exc:  # surfaced by the assert below
                failures.append(exc)

        threads = [threading.Thread(target=scan, args=(offset,))
                   for offset in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        kept = cached_columnar(catalog.table("R"))._join_indexes
        assert 0 < len(kept) <= npkernel.JOIN_INDEXES_KEPT


class TestColumnarEncodingCache:
    def test_hit_miss_counters(self):
        catalog, _, detail = null_heavy_catalog()
        with metrics_scope() as registry:
            first = cached_columnar(detail)
            second = cached_columnar(detail)
            assert second is first
            assert registry.counter("columnar.cache_misses").value == 1
            assert registry.counter("columnar.cache_hits").value == 1

    def test_scan_view_shares_cache(self):
        _, _, detail = null_heavy_catalog()
        with metrics_scope() as registry:
            cached_columnar(detail)
            view = detail.rename("q")
            hit = cached_columnar(view)
            assert registry.counter("columnar.cache_hits").value == 1
            assert hit.schema is view.schema

    def test_mutation_extends(self):
        # A write replaces the encoding with ``appended(delta)``; it is
        # never dropped, so the scan after an insert is a hit.
        _, _, detail = null_heavy_catalog()
        with metrics_scope() as registry:
            before = cached_columnar(detail)
            detail.insert((0, 1, "red", 0.5))
            rebuilt = cached_columnar(detail)
            assert registry.counter("columnar.cache_misses").value == 1
            assert registry.counter("columnar.appends").value == 1
            assert rebuilt is not before
            assert rebuilt.length == len(detail) == before.length + 1
            assert rebuilt.to_rows() == detail.rows


# -- COUNT(DISTINCT) without sorting ---------------------------------------------

#: Integer domains ``(lo, widths)`` for the COUNT(DISTINCT) argument: at
#: most 14 + 6 rows are drawn, so a value range of 0-40 lies on both
#: sides of the ``hi - lo + 1 <= |R| + |B|`` coding rule; ``lo`` moves
#: it below zero and to the edges of int64, where ``hi - lo`` itself
#: does not fit.
DISTINCT_DOMAINS = [
    (0, st.integers(0, 40)),
    (-7, st.integers(0, 40)),
    (-2 ** 63, st.sampled_from([0, 1, 3, 2 ** 64 - 1])),
    (2 ** 63 - 4, st.integers(0, 3)),
]

#: The argument columns: a drawn-range int, bool, float (-0.0 beside
#: 0.0), dictionary string, an int column that holds only NULL, and an
#: int expression (its codes are computed, not read off storage).
DISTINCT_ARGUMENTS = [col("r.Y"), col("r.P"), col("r.G"), col("r.T"),
                      col("r.N"), col("r.K") * lit(9) - lit(4)]


@st.composite
def distinct_cases(draw):
    """``(catalog, gmdj, rule, selection)``: every block carries a
    ``COUNT(DISTINCT)`` beside its ``count(*)`` — over a hash block, a
    scan block, or a detail-only one (one group without a rule) — with
    or without a completion rule."""
    lo, widths = draw(st.sampled_from(DISTINCT_DOMAINS))
    width = draw(widths)
    value = st.one_of(st.none(), st.integers(lo, lo + width))
    key = st.one_of(st.none(), st.integers(0, 2))
    flag = st.one_of(st.none(), st.booleans())
    real = st.one_of(st.none(), st.sampled_from([-1.5, -0.0, 0.0, 2.25]))
    word = st.one_of(st.none(), st.sampled_from(["aa", "bb", "cc"]))
    catalog = Catalog()
    catalog.create_table("B", Relation.from_columns(
        [("K", DataType.INTEGER), ("X", DataType.INTEGER)],
        draw(st.lists(st.tuples(key, key), max_size=6))))
    catalog.create_table("R", Relation.from_columns(
        [("K", DataType.INTEGER), ("Y", DataType.INTEGER),
         ("P", DataType.BOOLEAN), ("G", DataType.FLOAT),
         ("T", DataType.STRING), ("N", DataType.INTEGER)],
        draw(st.lists(st.tuples(key, value, flag, real, word, st.none()),
                      max_size=14))))
    thetas = [col("b.K") == col("r.K"), col("r.K") != col("b.K"),
              col("r.K") >= lit(1),
              (col("b.K") == col("r.K")) & (col("r.K") > col("b.X"))]
    n_blocks = draw(st.integers(1, 3))
    argument = st.sampled_from(DISTINCT_ARGUMENTS)
    gmdj = md(
        ScanTable("B", "b"), ScanTable("R", "r"),
        [[count_star(f"c{i}"),
          AggregateSpec("count", draw(argument), f"d{i}", True)]
         for i in range(n_blocks)],
        [draw(st.sampled_from(thetas)) for _ in range(n_blocks)])
    block = st.integers(0, n_blocks - 1)
    rule = draw(st.sampled_from([None, None, "zero", "at_least"]))
    if rule == "zero":
        rule = CompletionRule(must_be_zero=[draw(block)])
    elif rule == "at_least":
        rule = CompletionRule(
            need_at_least=[(draw(block), draw(st.integers(1, 3)))],
            exhaustive=True, aggregates_projected=True)
    selection = draw(st.sampled_from(
        [None, col("d0") >= lit(1), col("d0") < col("c0")]))
    return catalog, gmdj, rule, selection


class TestCountDistinctForms:
    """``COUNT(DISTINCT)`` on arrays is a set of (group, value-code)
    pairs in one of 2 x 2 forms — codes by direct addressing or by
    sorted rank, the set as a bitmap or as compacted pair lists — chosen
    by sizes read off the operands.  Whichever it is: the row kernel's
    rows, order and counters."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=distinct_cases())
    def test_three_kernels_agree_in_every_form(self, case):
        # Tile sizes 1/2/7 put the bitmap-vs-pending threshold
        # (max(|R|, 8 * TILE_PAIRS)) at 8-56 slots, inside the drawn
        # groups x radix products, and cut a rule scan mid-tuple.
        catalog, gmdj, rule, selection = case
        for tile, scan in three_kernel_scans(catalog, gmdj, rule, selection):
            assert not scan.attrs.get("fallbacks"), tile

    @staticmethod
    def planned(values, groups, argument=None, tile=None):
        """The ``_SpecArrays`` a COUNT(DISTINCT) over a one-column detail
        relation of ``values`` plans for ``groups`` groups."""
        from repro.algebra.npcompile import Columns

        dtype = {bool: DataType.BOOLEAN, str: DataType.STRING,
                 float: DataType.FLOAT}.get(
            next((type(v) for v in values if v is not None), int),
            DataType.INTEGER)
        detail = Relation.from_columns([("Y", dtype)],
                                       [(v,) for v in values], qualifier="r")
        spec = AggregateSpec("count", argument or col("r.Y"), "d", True)
        with pytest.MonkeyPatch.context() as patch:
            if tile is not None:
                patch.setattr(npkernel, "TILE_PAIRS", tile)
            return npkernel._SpecArrays(
                spec, Columns(cached_columnar(detail)), groups, len(values))

    def test_codes_are_direct_while_the_range_fits_the_operands(self):
        # |R| + |B| = 10 + 2 slots: a range of 12 is addressed, 13 ranked.
        for top, direct in ((11, True), (12, False)):
            values = [0, top, None, 5, 5, 0, top, 5, None, 0]
            state = self.planned(values, groups=2)
            assert state.mode == "bitmap"
            assert state.radix == (top + 1 if direct else 3)
        # Negative and extreme ranges measure hi - lo in Python ints.
        assert self.planned([-5, -3, None], groups=1).radix == 3
        assert self.planned([-2 ** 63, 2 ** 63 - 1], groups=1).radix == 2
        # Bools and dictionary codes are integers too; floats are ranked,
        # as are computed arguments whose range outgrew the operands.
        assert self.planned([True, None, True], groups=1).radix == 1
        assert self.planned(["b", "a", None, "b"], groups=1).radix == 2
        assert self.planned([0.5, 7.5, 7.5], groups=1).radix == 2
        assert self.planned([1, 9], groups=1,
                            argument=col("r.Y") * lit(100)).radix == 2
        # Every value NULL: nothing to code, one slot per group.
        state = self.planned([None, None], groups=3)
        assert (state.mode, state.radix) == ("bitmap", 1)

    def test_the_set_is_a_bitmap_while_it_fits_the_pair_buffer(self):
        # radix 4, |R| = 4: 16 groups x 4 = 64 slots = 8 * TILE_PAIRS at
        # tile 8; one more group and the pairs are kept as lists.
        values = [0, 1, 2, 3]
        bitmap = self.planned(values, groups=16, tile=8)
        assert bitmap.mode == "bitmap" and bitmap.seen.dtype == bool
        assert len(bitmap.seen) == 64
        lists = self.planned(values, groups=17, tile=8)
        assert lists.mode == "distinct" and lists.seen.dtype.kind == "i"
        # A long detail relation raises the threshold to |R|.
        assert self.planned(values * 20, groups=20, tile=8).mode == "bitmap"
        assert self.planned(values * 20, groups=21, tile=8).mode == "distinct"
