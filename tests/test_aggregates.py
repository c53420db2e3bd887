"""Unit tests for repro.algebra.aggregates — SQL NULL semantics included."""

import pytest

from repro.algebra.aggregates import (
    AggregateBlock,
    AggregateSpec,
    agg,
    count_star,
)
from repro import Database, QueryOptions
from repro.algebra.expressions import col
from repro.errors import ExpressionError, TypeCheckError
from repro.storage.schema import Field, Schema
from repro.storage.types import DataType

SCHEMA = Schema([Field("y", DataType.INTEGER, "R")])


def feed(spec: AggregateSpec, values):
    accumulator = spec.make_accumulator()
    for value in values:
        accumulator.add(value)
    return accumulator.result()


class TestCount:
    def test_count_star_counts_everything(self):
        assert feed(count_star(), [1, None, 3]) == 3

    def test_count_star_empty_is_zero(self):
        assert feed(count_star(), []) == 0

    def test_count_value_skips_nulls(self):
        assert feed(agg("count", col("y"), "c"), [1, None, 3]) == 2

    def test_count_value_empty_is_zero(self):
        assert feed(agg("count", col("y"), "c"), []) == 0


class TestSum:
    def test_sum(self):
        assert feed(agg("sum", col("y"), "s"), [1, 2, 3]) == 6

    def test_sum_skips_nulls(self):
        assert feed(agg("sum", col("y"), "s"), [1, None, 3]) == 4

    def test_sum_of_nothing_is_null(self):
        # The footnote-2 pitfall: SUM/MAX of an empty range is NULL, which
        # is why ALL cannot be reduced to an aggregate comparison.
        assert feed(agg("sum", col("y"), "s"), []) is None

    def test_sum_of_all_nulls_is_null(self):
        assert feed(agg("sum", col("y"), "s"), [None, None]) is None


class TestAvg:
    def test_avg(self):
        assert feed(agg("avg", col("y"), "a"), [2, 4]) == 3.0

    def test_avg_skips_nulls(self):
        assert feed(agg("avg", col("y"), "a"), [2, None, 4]) == 3.0

    def test_avg_empty_is_null(self):
        assert feed(agg("avg", col("y"), "a"), []) is None


class TestMinMax:
    def test_min(self):
        assert feed(agg("min", col("y"), "m"), [5, 2, 9]) == 2

    def test_max(self):
        assert feed(agg("max", col("y"), "m"), [5, 2, 9]) == 9

    def test_min_ignores_nulls(self):
        assert feed(agg("min", col("y"), "m"), [None, 4]) == 4

    def test_max_empty_is_null(self):
        assert feed(agg("max", col("y"), "m"), []) is None


class TestSpec:
    def test_unknown_function_rejected(self):
        with pytest.raises(ExpressionError):
            AggregateSpec("median", col("y"), "m")

    def test_star_only_for_count(self):
        with pytest.raises(ExpressionError):
            AggregateSpec("sum", None, "s")

    def test_is_count_star(self):
        assert count_star().is_count_star
        assert not agg("count", col("y"), "c").is_count_star

    def test_output_field_count_is_integer(self):
        assert count_star().output_field(SCHEMA).dtype is DataType.INTEGER

    def test_output_field_avg_is_float(self):
        spec = agg("avg", col("y"), "a")
        assert spec.output_field(SCHEMA).dtype is DataType.FLOAT

    def test_output_field_sum_follows_argument(self):
        spec = agg("sum", col("R.y"), "s")
        assert spec.output_field(SCHEMA).dtype is DataType.INTEGER

    def test_output_field_name(self):
        assert count_star("cnt1").output_field(SCHEMA).name == "cnt1"

    def test_repr(self):
        assert "count(*)" in repr(count_star())


class TestStringArgument:
    """SUM/AVG over a STRING column is a typed error on every kernel,
    raised before any row is read (an empty table answers the same)."""

    @pytest.fixture
    def db(self):
        db = Database()
        db.create_table("T", [("K", DataType.INTEGER),
                              ("S", DataType.STRING)], [(1, "a"), (2, None)])
        db.create_table("U", [("K", DataType.INTEGER),
                              ("S", DataType.STRING)], [(1, "b")])
        return db

    @pytest.mark.parametrize("function", ["sum", "avg"])
    def test_output_field_rejects_string(self, function):
        schema = Schema([Field("s", DataType.STRING, "R")])
        with pytest.raises(TypeCheckError, match="over STRING"):
            agg(function, col("R.s"), "x").output_field(schema)

    @pytest.mark.parametrize("backend", ["row", "numpy"])
    @pytest.mark.parametrize("sql", [
        "SELECT SUM(T.S) FROM T",
        "SELECT T.K FROM T WHERE T.K > "
        "(SELECT AVG(U.S) FROM U WHERE U.K = T.K)",
    ])
    def test_query_is_rejected(self, db, backend, sql):
        options = QueryOptions(backend=backend, use_cache=False)
        with pytest.raises(TypeCheckError, match="over STRING"):
            db.execute_sql(sql, options)


class TestAggregateBlock:
    def test_updates_all_specs_together(self):
        block = AggregateBlock(
            [count_star("c"), agg("sum", col("R.y"), "s")], SCHEMA
        )
        state = block.new_state()
        block.update(state, (4,))
        block.update(state, (None,))
        assert AggregateBlock.finalize(state) == (2, 4)

    def test_empty_state(self):
        block = AggregateBlock([count_star("c"), agg("max", col("R.y"), "m")],
                               SCHEMA)
        assert AggregateBlock.finalize(block.new_state()) == (0, None)
