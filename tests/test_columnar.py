"""Unit tests for repro.storage.columnar (lossless columnar transpose)."""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.storage.columnar import ColumnarRelation, ColumnData
from repro.storage.relation import Relation
from repro.storage.schema import Field, Schema
from repro.storage.types import DataType


def make_relation(fields, rows, name=None, validate=True):
    schema = Schema([Field(n, t, "T") for n, t in fields])
    return Relation(schema, rows, name=name, validate=validate)


def roundtrip(relation):
    return ColumnarRelation.from_relation(relation).to_relation()


class TestRoundTrip:
    def test_exact_rows_in_order(self):
        relation = make_relation(
            [("k", DataType.INTEGER), ("v", DataType.FLOAT),
             ("s", DataType.STRING), ("f", DataType.BOOLEAN)],
            [(1, 2.5, "a", True), (2, -0.5, "b", False),
             (1, 2.5, "a", True)],
        )
        back = roundtrip(relation)
        assert back.rows == relation.rows
        assert back.schema == relation.schema

    def test_duplicates_survive(self):
        relation = make_relation([("k", DataType.INTEGER)],
                                 [(7,)] * 5 + [(3,)] * 2)
        assert roundtrip(relation).rows == relation.rows

    def test_nulls_survive_per_column(self):
        relation = make_relation(
            [("k", DataType.INTEGER), ("s", DataType.STRING)],
            [(None, "x"), (1, None), (None, None), (2, "x")],
        )
        assert roundtrip(relation).rows == relation.rows

    def test_empty_relation(self):
        relation = make_relation(
            [("k", DataType.INTEGER), ("s", DataType.STRING)], []
        )
        back = roundtrip(relation)
        assert back.rows == []
        assert len(back.schema) == 2

    def test_name_preserved(self):
        relation = make_relation([("k", DataType.INTEGER)], [(1,)],
                                 name="detail")
        columnar = ColumnarRelation.from_relation(relation)
        assert columnar.name == "detail"
        assert columnar.to_relation().name == "detail"

    def test_bool_identity_restored(self):
        relation = make_relation([("f", DataType.BOOLEAN)],
                                 [(True,), (False,), (None,)])
        values = [row[0] for row in roundtrip(relation).rows]
        assert values == [True, False, None]
        assert all(v is None or type(v) is bool for v in values)


class TestTypedEncodings:
    def test_integer_column_uses_int64_array(self):
        relation = make_relation([("k", DataType.INTEGER)],
                                 [(1,), (None,), (-5,)])
        column = ColumnarRelation.from_relation(relation).columns[0]
        assert column.kind == "int"
        assert isinstance(column.data, np.ndarray)
        assert column.data.dtype == np.int64
        assert column.null_count() == 1

    def test_float_column_uses_double_array(self):
        relation = make_relation([("v", DataType.FLOAT)], [(0.5,), (None,)])
        column = ColumnarRelation.from_relation(relation).columns[0]
        assert column.kind == "float"
        assert column.data.dtype == np.float64

    def test_string_column_dictionary_encodes(self):
        relation = make_relation(
            [("s", DataType.STRING)],
            [("red",), ("blue",), ("red",), (None,), ("red",)],
        )
        column = ColumnarRelation.from_relation(relation).columns[0]
        assert column.kind == "dict"
        assert sorted(column.dictionary) == ["blue", "red"]
        assert column.decode() == ["red", "blue", "red", None, "red"]

    def test_int64_overflow_falls_back_to_objects(self):
        big = 2 ** 70
        relation = make_relation([("k", DataType.INTEGER)], [(big,), (1,)])
        column = ColumnarRelation.from_relation(relation).columns[0]
        assert column.kind == "object"
        assert roundtrip(relation).rows == [(big,), (1,)]

    def test_mistyped_values_fall_back_losslessly(self):
        # Intermediate relations use validate=False, so a declared
        # INTEGER column may actually carry floats; the round trip must
        # still be exact.
        relation = make_relation([("k", DataType.INTEGER)],
                                 [(1,), (2.5,), (None,)], validate=False)
        column = ColumnarRelation.from_relation(relation).columns[0]
        assert column.kind == "object"
        assert roundtrip(relation).rows == relation.rows

    def test_bool_is_not_an_acceptable_integer(self):
        # type(True) is bool, not int: keep the distinction through the
        # round trip rather than silently coercing to 0/1.
        relation = make_relation([("k", DataType.INTEGER)],
                                 [(True,), (1,)], validate=False)
        back = roundtrip(relation)
        assert back.rows[0][0] is True


class TestValidityMasks:
    """A mask exists exactly when the encoder saw a NULL — nothing
    upstream (lint, planner, kernel) tells storage which columns are
    NULL-free."""

    def test_null_free_typed_columns_are_mask_free(self):
        relation = make_relation(
            [("k", DataType.INTEGER), ("v", DataType.FLOAT),
             ("s", DataType.STRING), ("f", DataType.BOOLEAN)],
            [(1, 2.5, "a", True), (2, -0.5, "b", False)],
        )
        columnar = ColumnarRelation.from_relation(relation)
        assert [column.valid for column in columnar.columns] == [None] * 4
        assert columnar.mask_free_columns() == 4
        assert columnar.to_relation().rows == relation.rows

    def test_null_bearing_columns_carry_a_mask(self):
        relation = make_relation(
            [("k", DataType.INTEGER), ("v", DataType.FLOAT),
             ("s", DataType.STRING), ("f", DataType.BOOLEAN)],
            [(1, None, "a", None), (None, -0.5, None, False)],
        )
        columnar = ColumnarRelation.from_relation(relation)
        assert all(column.valid.dtype == np.bool_
                   for column in columnar.columns)
        assert ([column.valid.tolist() for column in columnar.columns]
                == [[True, False], [False, True],
                    [True, False], [False, True]])
        assert columnar.mask_free_columns() == 0
        assert columnar.to_relation().rows == relation.rows

    def test_mask_decided_per_column(self):
        relation = make_relation(
            [("k", DataType.INTEGER), ("v", DataType.INTEGER)],
            [(i % 4, None if i % 3 == 0 else i * 10) for i in range(60)],
        )
        key, value = ColumnarRelation.from_relation(relation).columns
        assert key.mask_free and key.null_count() == 0
        assert not value.mask_free and value.null_count() == 20

    def test_empty_relation_is_mask_free(self):
        relation = make_relation([("k", DataType.INTEGER)], [])
        assert ColumnarRelation.from_relation(relation).columns[0].mask_free

    def test_mixed_type_column_stays_an_object_column(self):
        # The object fallback is unchanged: values kept as-is next to a
        # full mask, NULL or no NULL.
        for rows in ([(1,), (2.5,)], [(1,), (2.5,), (None,)]):
            relation = make_relation([("k", DataType.INTEGER)], rows,
                                     validate=False)
            column = ColumnarRelation.from_relation(relation).columns[0]
            assert column.kind == "object"
            assert column.data == [row[0] for row in rows]
            assert column.valid.tolist() == [
                row[0] is not None for row in rows]


class TestAccessors:
    def test_values_cached(self):
        relation = make_relation([("k", DataType.INTEGER)], [(1,), (2,)])
        columnar = ColumnarRelation.from_relation(relation)
        assert columnar.values(0) is columnar.values(0)

    def test_value_columns_in_schema_order(self):
        relation = make_relation(
            [("k", DataType.INTEGER), ("s", DataType.STRING)],
            [(1, "a"), (2, "b")],
        )
        cols = ColumnarRelation.from_relation(relation).value_columns()
        assert cols == ([1, 2], ["a", "b"])

    def test_row_materialization(self):
        relation = make_relation(
            [("k", DataType.INTEGER), ("s", DataType.STRING)],
            [(1, "a"), (None, None)],
        )
        columnar = ColumnarRelation.from_relation(relation)
        assert columnar.row(1) == (None, None)

    def test_len_and_null_count(self):
        data = ColumnData("int", np.array([0, 5], dtype=np.int64),
                          np.array([False, True]))
        assert len(data) == 2
        assert data.null_count() == 1
        assert data.decode() == [None, 5]


typed_value = st.one_of(
    st.none(),
    st.integers(min_value=-(2 ** 80), max_value=2 ** 80),
    st.floats(allow_nan=False),
    st.booleans(),
    st.text(max_size=6),
)


SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestColumnarRoundTripProperty:
    @SETTINGS
    @given(
        k=st.lists(st.one_of(st.none(),
                             st.integers(min_value=-10, max_value=10)),
                   max_size=20),
        s=st.lists(st.one_of(st.none(), st.sampled_from(["a", "b", "c"])),
                   max_size=20),
    )
    def test_typed_columns_round_trip(self, k, s):
        n = min(len(k), len(s))
        relation = Relation.from_columns(
            [("K", DataType.INTEGER), ("S", DataType.STRING)],
            list(zip(k[:n], s[:n])),
        )
        back = ColumnarRelation.from_relation(relation).to_relation()
        assert back.rows == relation.rows

    @SETTINGS
    @given(values=st.lists(typed_value, max_size=20))
    def test_mistyped_values_round_trip(self, values):
        # Declared INTEGER but carrying arbitrary values, as intermediate
        # relations built with validate=False legitimately do.
        relation = Relation(
            Relation.from_columns([("K", DataType.INTEGER)]).schema,
            [(v,) for v in values], validate=False,
        )
        back = ColumnarRelation.from_relation(relation).to_relation()
        assert back.rows == relation.rows
        for original, restored in zip(relation.rows, back.rows):
            assert type(original[0]) is type(restored[0])
