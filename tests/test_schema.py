"""Unit tests for repro.storage.schema."""

import pytest

from repro.errors import (
    AmbiguousAttributeError,
    SchemaError,
    UnknownAttributeError,
)
from repro.storage.schema import RENAME_MEMO_LIMIT, Field, Schema
from repro.storage.types import DataType


@pytest.fixture
def flow_schema() -> Schema:
    return Schema([
        Field("StartTime", DataType.INTEGER, "F"),
        Field("Protocol", DataType.STRING, "F"),
        Field("NumBytes", DataType.INTEGER, "F"),
    ])


class TestField:
    def test_full_name_qualified(self):
        assert Field("x", DataType.INTEGER, "T").full_name == "T.x"

    def test_full_name_bare(self):
        assert Field("x", DataType.INTEGER).full_name == "x"

    def test_matches_bare_reference(self):
        field = Field("x", DataType.INTEGER, "T")
        assert field.matches("x")

    def test_matches_qualified_reference(self):
        field = Field("x", DataType.INTEGER, "T")
        assert field.matches("T.x")
        assert not field.matches("U.x")

    def test_bare_field_does_not_match_qualified(self):
        assert not Field("x", DataType.INTEGER).matches("T.x")

    def test_with_qualifier(self):
        field = Field("x", DataType.INTEGER, "T").with_qualifier("U")
        assert field.full_name == "U.x"


class TestResolution:
    def test_index_of_qualified(self, flow_schema):
        assert flow_schema.index_of("F.Protocol") == 1

    def test_index_of_bare(self, flow_schema):
        assert flow_schema.index_of("NumBytes") == 2

    def test_unknown_reference(self, flow_schema):
        with pytest.raises(UnknownAttributeError):
            flow_schema.index_of("F.Missing")

    def test_ambiguous_bare_reference(self):
        schema = Schema([
            Field("k", DataType.INTEGER, "A"),
            Field("k", DataType.INTEGER, "B"),
        ])
        with pytest.raises(AmbiguousAttributeError):
            schema.index_of("k")

    def test_exact_full_name_beats_ambiguity(self):
        # An unqualified field named exactly like the reference wins even
        # when qualified same-named fields exist — index_of prefers the
        # exact full-name hit (load-bearing for translator identity links).
        schema = Schema([
            Field("k", DataType.INTEGER),
            Field("k", DataType.INTEGER, "B"),
        ])
        assert schema.index_of("k") == 0
        assert schema.index_of("B.k") == 1

    def test_has(self, flow_schema):
        assert flow_schema.has("F.StartTime")
        assert not flow_schema.has("F.Nothing")

    def test_has_raises_nothing_on_a_miss(self, monkeypatch):
        # A miss is a lookup, not a formatted-and-caught error.
        schema = Schema([
            Field("k", DataType.INTEGER, "A"),
            Field("k", DataType.INTEGER, "B"),
        ])
        monkeypatch.setattr(Schema, "index_of", None)
        assert not schema.has("k")  # ambiguous
        assert not schema.has("A.nothing")
        assert schema.has("B.k")

    def test_duplicate_fields_rejected(self):
        with pytest.raises(SchemaError):
            Schema([
                Field("x", DataType.INTEGER, "T"),
                Field("x", DataType.STRING, "T"),
            ])

    def test_field_of(self, flow_schema):
        assert flow_schema.field_of("F.Protocol").dtype is DataType.STRING


class TestTransforms:
    def test_rename_changes_all_qualifiers(self, flow_schema):
        renamed = flow_schema.rename("G")
        assert renamed.names == ("G.StartTime", "G.Protocol", "G.NumBytes")

    def test_rename_hands_back_the_schema_it_built(self, flow_schema):
        assert flow_schema.rename("G") is flow_schema.rename("G")
        assert flow_schema.rename("H") is not flow_schema.rename("G")

    def test_rename_memo_is_bounded(self, flow_schema):
        # A server fed a stream of distinct aliases over one table.
        for i in range(10_000):
            renamed = flow_schema.rename(f"alias{i}")
            assert renamed.names[0] == f"alias{i}.StartTime"
        assert len(flow_schema._renamed) <= RENAME_MEMO_LIMIT

    def test_pickle_carries_no_rename_memo(self, flow_schema):
        import pickle

        flow_schema.rename("G")
        copy = pickle.loads(pickle.dumps(flow_schema))
        assert copy == flow_schema and copy._renamed == {}

    def test_concat(self, flow_schema):
        other = Schema([Field("id", DataType.INTEGER, "U")])
        combined = flow_schema.concat(other)
        assert len(combined) == 4
        assert combined.index_of("U.id") == 3

    def test_project_reorders(self, flow_schema):
        projected = flow_schema.project(["F.NumBytes", "F.StartTime"])
        assert projected.names == ("F.NumBytes", "F.StartTime")

    def test_extend(self, flow_schema):
        extended = flow_schema.extend([Field("cnt", DataType.INTEGER)])
        assert extended.index_of("cnt") == 3

    def test_qualifiers(self, flow_schema):
        assert flow_schema.qualifiers() == {"F"}

    def test_of_constructor(self):
        schema = Schema.of(("a", DataType.INTEGER), ("b", DataType.STRING),
                           qualifier="T")
        assert schema.names == ("T.a", "T.b")

    def test_equality(self, flow_schema):
        same = Schema(list(flow_schema.fields))
        assert schema_eq(flow_schema, same)

    def test_iteration_order(self, flow_schema):
        assert [f.name for f in flow_schema] == [
            "StartTime", "Protocol", "NumBytes"
        ]


def schema_eq(a: Schema, b: Schema) -> bool:
    return a == b
