"""Tests for DISTINCT aggregates through every layer."""

import pytest
from repro import QueryOptions

from repro.algebra.aggregates import AggregateSpec, agg
from repro.algebra.expressions import col
from repro.algebra.operators import GroupBy, ScanTable
from repro.engine import Database
from repro.errors import ExpressionError, SQLSyntaxError
from repro.gmdj import (
    evaluate_gmdj_partitioned,
    evaluate_plan,
    md,
    select_kernel,
)
from repro.obs.tracer import tracing
from repro.storage import DataType, collect


def spec(function, distinct=True, name="v"):
    return AggregateSpec(function, col("r.Y"), name, distinct)


def feed(specification, values):
    accumulator = specification.make_accumulator()
    for value in values:
        accumulator.add(value)
    return accumulator.result()


@pytest.fixture
def db() -> Database:
    database = Database()
    database.create_table(
        "B", [("K", DataType.INTEGER)], [(1,), (2,)],
    )
    database.create_table(
        "R", [("K", DataType.INTEGER), ("Y", DataType.INTEGER)],
        [(1, 5), (1, 5), (1, 7), (2, None), (2, 3), (2, 3)],
    )
    return database


class TestAccumulators:
    def test_count_distinct(self):
        assert feed(spec("count"), [1, 1, 2, None, 2]) == 2

    def test_sum_distinct(self):
        assert feed(spec("sum"), [5, 5, 7]) == 12

    def test_avg_distinct(self):
        assert feed(spec("avg"), [2, 2, 4]) == 3.0

    def test_distinct_empty_input(self):
        assert feed(spec("count"), []) == 0
        assert feed(spec("sum"), [None, None]) is None

    def test_distinct_merge(self):
        left = spec("count").make_accumulator()
        right = spec("count").make_accumulator()
        for value in (1, 2):
            left.add(value)
        for value in (2, 3):
            right.add(value)
        left.merge(right)
        assert left.result() == 3

    def test_count_distinct_star_rejected(self):
        with pytest.raises(ExpressionError):
            AggregateSpec("count", None, "c", distinct=True)


class TestThroughOperators:
    def test_groupby_distinct(self, db):
        plan = GroupBy(ScanTable("R", "r"), ["r.K"],
                       [agg("count", col("r.Y"), "plain"),
                        AggregateSpec("count", col("r.Y"), "uniq", True)])
        result = plan.evaluate(db.catalog)
        rows = {row[0]: (row[1], row[2]) for row in result.rows}
        assert rows[1] == (3, 2)
        assert rows[2] == (2, 1)

    def test_gmdj_distinct(self, db):
        plan = md(ScanTable("B", "b"), ScanTable("R", "r"),
                  [[AggregateSpec("count", col("r.Y"), "uniq", True)]],
                  [col("b.K") == col("r.K")])
        result = plan.evaluate(db.catalog)
        assert dict(result.rows) == {1: 2, 2: 1}

    def test_partitioned_falls_back_but_is_correct(self, db):
        plan = md(ScanTable("B", "b"), ScanTable("R", "r"),
                  [[AggregateSpec("sum", col("r.Y"), "s", True)]],
                  [col("b.K") == col("r.K")])
        single = plan.evaluate(db.catalog)
        partitioned = evaluate_gmdj_partitioned(plan, db.catalog, 3)
        assert single.bag_equal(partitioned)


class TestThroughSQL:
    def test_select_count_distinct(self, db):
        result = db.execute_sql(
            "SELECT r.K, count(DISTINCT r.Y) AS u FROM R r GROUP BY r.K"
        )
        assert dict(result.rows) == {1: 2, 2: 1}

    def test_scalar_subquery_with_distinct(self, db):
        sql = ("SELECT b.K FROM B b WHERE 2 = "
               "(SELECT count(DISTINCT r.Y) FROM R r WHERE r.K = b.K)")
        reference = db.execute_sql(sql, QueryOptions("naive"))
        assert sorted(row[0] for row in reference.rows) == [1]
        for strategy in ("gmdj", "gmdj_optimized"):
            assert reference.bag_equal(db.execute_sql(sql, QueryOptions(strategy)))

    def test_distinct_star_rejected(self, db):
        with pytest.raises(SQLSyntaxError):
            db.sql("SELECT count(DISTINCT *) FROM R")


KERNELS = ["row", "python", "numpy"]


class TestOnEveryKernel:
    """DISTINCT aggregates through each scan kernel of the pipeline; the
    numpy kernel counts distinct values on arrays (the set of (base,
    value-code) pairs, as a bitmap or as sorted pair lists) and must not
    report a fallback for it."""

    @pytest.fixture
    def wide_db(self) -> Database:
        database = Database()
        database.create_table(
            "B", [("K", DataType.INTEGER)], [(1,), (2,), (2,), (3,), (None,)],
        )
        database.create_table(
            "R", [("K", DataType.INTEGER), ("Y", DataType.INTEGER),
                  ("S", DataType.STRING), ("F", DataType.FLOAT)],
            [(1, 5, "a", 0.5), (1, 5, "a", -0.0), (1, 7, "b", 0.0),
             (2, None, None, None), (2, 3, "a", 2.5), (2, 3, "c", 2.5),
             (None, 9, "z", 9.0), (4, 1, "q", 1.0), (1, None, "b", 0.5)],
        )
        return database

    def run(self, db, plan, kernel):
        with tracing() as tracer, collect() as stats:
            result = evaluate_plan(plan, db.catalog, select_kernel(kernel))
        scans = tracer.trace().find(kind="detail_scan")
        fallbacks = [reason for scan in scans
                     for reason in scan.attrs.get("fallbacks", ())]
        return result.rows, stats.snapshot(), fallbacks

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("column", ["r.Y", "r.S", "r.F"])
    def test_count_distinct(self, wide_db, kernel, column):
        plan = md(ScanTable("B", "b"), ScanTable("R", "r"),
                  [[AggregateSpec("count", col(column), "uniq", True),
                    agg("count", col(column), "plain")],
                   [AggregateSpec("count", col(column), "all_uniq", True)]],
                  [col("b.K") == col("r.K"), col("r.K") >= col("r.K")])
        expected_rows, expected_stats, _ = self.run(wide_db, plan, "row")
        rows, stats, fallbacks = self.run(wide_db, plan, kernel)
        assert rows == expected_rows
        assert stats == expected_stats
        assert not fallbacks
        by_key = {row[0]: row[1:] for row in rows}
        assert by_key[1][:2] == {"r.Y": (2, 3), "r.S": (2, 4),
                                 "r.F": (2, 4)}[column]
        assert by_key[3][:2] == (0, 0)

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("function", ["sum", "avg"])
    def test_sum_and_avg_distinct_keep_first_seen_order(self, wide_db,
                                                        kernel, function):
        plan = md(ScanTable("B", "b"), ScanTable("R", "r"),
                  [[AggregateSpec(function, col("r.F"), "v", True)]],
                  [col("b.K") == col("r.K")])
        expected_rows, expected_stats, _ = self.run(wide_db, plan, "row")
        rows, stats, fallbacks = self.run(wide_db, plan, kernel)
        assert rows == expected_rows
        assert stats == expected_stats
        # The one DISTINCT shape the array kernel hands to Python.
        assert bool(fallbacks) == (kernel == "numpy")

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_scalar_subquery_with_distinct(self, db, kernel):
        sql = ("SELECT b.K FROM B b WHERE 2 = "
               "(SELECT count(DISTINCT r.Y) FROM R r WHERE r.K = b.K)")
        reference = db.execute_sql(sql, QueryOptions("naive"))
        for strategy in ("gmdj", "gmdj_optimized"):
            result = db.execute_sql(
                sql, QueryOptions(strategy, backend=kernel))
            assert result.rows == reference.rows == [(1,)]
