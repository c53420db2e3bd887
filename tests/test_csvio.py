"""Unit tests for repro.storage.csvio."""

import pytest

from repro.errors import SchemaError
from repro.storage import (
    Catalog,
    DataType,
    Relation,
    load_catalog,
    load_csv,
    save_catalog,
    save_csv,
)
from repro.storage.schema import Field, Schema


@pytest.fixture
def relation() -> Relation:
    schema = Schema([
        Field("k", DataType.INTEGER, "T"),
        Field("name", DataType.STRING),
        Field("score", DataType.FLOAT),
        Field("ok", DataType.BOOLEAN),
    ])
    return Relation(schema, [
        (1, "alice", 3.5, True),
        (2, None, None, False),
        (None, "bob", 0.0, None),
    ])


class TestRoundTrip:
    def test_rows_survive(self, relation, tmp_path):
        path = tmp_path / "t.csv"
        save_csv(relation, path)
        loaded = load_csv(path)
        assert loaded.bag_equal(relation)

    def test_schema_survives(self, relation, tmp_path):
        path = tmp_path / "t.csv"
        save_csv(relation, path)
        loaded = load_csv(path)
        assert loaded.schema.names == relation.schema.names
        assert loaded.schema.field_of("T.k").dtype is DataType.INTEGER

    def test_name_defaults_to_stem(self, relation, tmp_path):
        path = tmp_path / "flows.csv"
        save_csv(relation, path)
        assert load_csv(path).name == "flows"

    def test_explicit_name(self, relation, tmp_path):
        path = tmp_path / "x.csv"
        save_csv(relation, path)
        assert load_csv(path, name="custom").name == "custom"


class TestNullHandling:
    def test_nulls_round_trip(self, relation, tmp_path):
        path = tmp_path / "t.csv"
        save_csv(relation, path)
        loaded = load_csv(path)
        assert loaded.rows[1][1] is None
        assert loaded.rows[2][0] is None

    def test_empty_string_becomes_null(self, tmp_path):
        # A deliberate lossy corner: empty strings read back as NULL.
        lossy = Relation.from_columns([("s", DataType.STRING)], [("",)])
        path = tmp_path / "t.csv"
        save_csv(lossy, path)
        loaded = load_csv(path)
        assert loaded.rows[0][0] is None


class TestErrors:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(SchemaError):
            load_csv(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("justaname\n1\n")
        with pytest.raises(SchemaError):
            load_csv(path)

    def test_unknown_type_in_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x:decimal\n1\n")
        with pytest.raises(SchemaError):
            load_csv(path)


class TestCatalogPersistence:
    def test_round_trip(self, relation, tmp_path):
        catalog = Catalog()
        catalog.create_table("A", relation)
        catalog.create_table("B", Relation.from_columns(
            [("x", DataType.FLOAT)], [(1.5,), (None,)],
        ))
        save_catalog(catalog, tmp_path / "db")
        loaded = load_catalog(tmp_path / "db")
        assert loaded.table_names() == ["A", "B"]
        assert loaded.table("A").bag_equal(catalog.table("A"))
        assert loaded.table("B").bag_equal(catalog.table("B"))

    def test_save_returns_paths(self, relation, tmp_path):
        catalog = Catalog()
        catalog.create_table("A", relation)
        written = save_catalog(catalog, tmp_path)
        assert [p.name for p in written] == ["A.csv"]

    def test_indexes_not_persisted(self, relation, tmp_path):
        catalog = Catalog()
        catalog.create_table("A", relation)
        catalog.create_hash_index("A", ["k"])
        save_catalog(catalog, tmp_path)
        loaded = load_catalog(tmp_path)
        assert loaded.hash_index("A", ["k"]) is None
