"""Binary columnar persistence: NPY-per-column + manifest round trips.

The format contract: ``load_binary(save_binary(r)) `` reproduces the
relation's rows exactly — values, duplicates, order, NULLs, and value
*types* — for every column kind (int64, float64, bool, dictionary
string, object fallback); the loaded relation's one columnar encoding
is ndarrays over the ``mmap``'d files, so vectorized queries scan the
mapped arrays.  The files are byte-for-byte what the format has always
been (``tests/data/compat.cols``), and corrupt ones fail closed with a
:class:`SchemaError`.
"""

from __future__ import annotations

import json
import math
import mmap
import random
from pathlib import Path

import numpy as np
import pytest

from repro.engine.database import Database
from repro.errors import SchemaError
from repro.storage import (
    Catalog,
    DataType,
    Relation,
    load_binary,
    load_catalog_binary,
    save_binary,
    save_catalog_binary,
)

COMPAT = Path(__file__).parent / "data" / "compat.cols"


def sample_relation(rows=120, seed=9):
    rng = random.Random(seed)

    def maybe(value, rate=0.3):
        return None if rng.random() < rate else value

    return Relation.from_columns(
        [("K", DataType.INTEGER), ("S", DataType.STRING),
         ("F", DataType.FLOAT), ("B", DataType.BOOLEAN)],
        [(maybe(rng.randrange(-50, 50)),
          maybe(rng.choice(["", "aa", "b,b", "ünïcode"])),
          maybe(rng.choice([0.0, -0.0, 1.5, 2.25])),
          maybe(rng.random() < 0.5))
         for _ in range(rows)],
        name="t", qualifier="t",
    )


def is_mapped(array):
    """Is ``array`` a view over an ``mmap`` (not a copy)?"""
    base = array.base
    return isinstance(getattr(base, "obj", base), mmap.mmap)


def assert_round_trip(relation, path):
    back = load_binary(save_binary(relation, path))
    assert back.rows == relation.rows
    for original, restored in zip(relation.rows, back.rows):
        for a, b in zip(original, restored):
            assert type(a) is type(b)
    assert ([f.full_name for f in back.schema.fields]
            == [f.full_name for f in relation.schema.fields])
    assert ([f.dtype for f in back.schema.fields]
            == [f.dtype for f in relation.schema.fields])
    return back


class TestRoundTrip:
    def test_all_kinds(self, tmp_path):
        assert_round_trip(sample_relation(), tmp_path / "t")

    def test_empty_relation(self, tmp_path):
        relation = Relation.from_columns(
            [("K", DataType.INTEGER), ("S", DataType.STRING)], [],
            name="empty")
        assert_round_trip(relation, tmp_path / "empty")

    def test_object_column_big_ints(self, tmp_path):
        relation = Relation.from_columns(
            [("K", DataType.INTEGER)],
            [(2 ** 70,), (None,), (-(2 ** 90),), (3,)], name="big")
        back = assert_round_trip(relation, tmp_path / "big")
        assert back.rows[0][0] == 2 ** 70  # arbitrary precision survives

    def test_mask_free_columns_stay_mask_free(self, tmp_path):
        relation = Relation.from_columns(
            [("K", DataType.INTEGER), ("S", DataType.STRING),
             ("N", DataType.INTEGER)],
            [(i, str(i % 3), None if i % 5 == 0 else i) for i in range(40)],
            name="nn")
        path = save_binary(relation, tmp_path / "nn")
        # Mask files exist only for the NULL-bearing column.
        assert [p.name for p in path.glob("*.mask.npy")] == ["c2.mask.npy"]
        back = load_binary(path)
        assert back.rows == relation.rows
        (seeded,) = back._columnar
        assert ([column.mask_free for column in seeded.columns]
                == [True, True, False])

    def test_files_are_standard_npy(self, tmp_path):
        relation = sample_relation()
        path = save_binary(relation, tmp_path / "t")
        values = np.load(path / "c0.npy")
        assert values.dtype == np.int64
        mask = np.load(path / "c0.mask.npy")
        decoded = [int(v) if ok else None for v, ok in zip(values, mask)]
        assert decoded == [row[0] for row in relation.rows]

    def test_suffix_appended(self, tmp_path):
        path = save_binary(sample_relation(rows=3), tmp_path / "plain")
        assert path.name == "plain.cols"

    def test_all_null_string_column(self, tmp_path):
        # Every code is a NULL slot's 0 and the dictionary is empty.
        relation = Relation.from_columns(
            [("K", DataType.INTEGER), ("S", DataType.STRING)],
            [(1, None), (2, None)], name="nulls")
        assert_round_trip(relation, tmp_path / "nulls")

    def test_catalog_round_trip(self, tmp_path):
        catalog = Catalog()
        catalog.create_table("a", sample_relation(rows=10, seed=1))
        catalog.create_table("b", sample_relation(rows=7, seed=2))
        written = save_catalog_binary(catalog, tmp_path)
        assert [p.name for p in written] == ["a.cols", "b.cols"]
        back = load_catalog_binary(tmp_path)
        for name in ("a", "b"):
            assert back.table(name).rows == catalog.table(name).rows


class TestLoadedEncodingCache:
    def test_cache_preseeded_and_used(self, tmp_path):
        from repro.obs.metrics import metrics_scope
        from repro.storage.columnar import cached_columnar

        back = load_binary(save_binary(sample_relation(), tmp_path / "t"))
        with metrics_scope() as registry:
            columnar = cached_columnar(back)
            assert registry.counter("columnar.cache_hits").value == 1
            assert registry.counter("columnar.cache_misses").value == 0
        assert columnar.to_relation().rows == back.rows

    def test_queries_scan_the_one_mapped_encoding(self, tmp_path):
        from repro import QueryOptions
        from repro.obs.metrics import metrics_scope

        database = Database()
        # K is NULL-free, F is not: one mask-free and one masked column.
        detail = Relation.from_columns(
            [("K", DataType.INTEGER), ("F", DataType.FLOAT)],
            [(i % 7, None if i % 4 == 0 else i / 8 - 3) for i in range(90)],
            name="r")
        save_binary(detail, tmp_path / "r")
        loaded = database.load_binary("R", tmp_path / "r.cols")
        (mapped,) = loaded._columnar
        assert [column.mask_free for column in mapped.columns] == [True, False]
        database.create_table("B", [("K", DataType.INTEGER)],
                              [(k,) for k in range(-2, 6)])
        sql = ("SELECT b.K FROM B b WHERE EXISTS "
               "(SELECT * FROM R r WHERE r.K = b.K AND r.F > 0.0)")
        expected = database.execute_sql(sql, QueryOptions(
            strategy="gmdj", backend="row", use_cache=False)).rows
        for backend in ("python", "numpy"):
            options = QueryOptions(strategy="gmdj", backend=backend,
                                   use_cache=False, rollup="off")
            with metrics_scope() as registry:
                assert database.execute_sql(sql, options).rows == expected
                # R is never re-encoded.  The array kernel also reads
                # its base as columns: B, created in memory, is encoded
                # on that first scan (and keeps the encoding).
                assert registry.counter("columnar.cache_misses").value \
                    == (1 if backend == "numpy" else 0)
                assert registry.counter("columnar.cache_hits").value >= 1
        # Still exactly one encoding, and it is the memory-mapped one.
        assert database.table("R")._columnar == [mapped]
        for column in mapped.columns:
            assert isinstance(column.data, np.ndarray)
            assert is_mapped(column.data)

    def test_an_appended_table_saves_the_buffers_it_scans(
            self, tmp_path, monkeypatch):
        # load -> insert (a NULL into a mask-free column, a new
        # dictionary word) -> save -> load: same rows, masks, dictionary.
        from repro.storage.columnar import ColumnarRelation

        original = Relation.from_columns(
            [("K", DataType.INTEGER), ("S", DataType.STRING)],
            [(i, ["b", "a"][i % 2]) for i in range(6)], name="t")
        database = Database()
        database.load_binary("T", save_binary(original, tmp_path / "t"))
        assert database.table("T")._columnar[0].mask_free_columns() == 2
        database.insert("T", [(None, "zz"), (7, None)])
        (scanned,) = database.table("T")._columnar

        def refuse(*args, **kwargs):
            raise AssertionError("save_binary re-encoded the relation")

        monkeypatch.setattr(ColumnarRelation, "from_relation", refuse)
        back = load_binary(save_binary(database.table("T"), tmp_path / "t2"))
        monkeypatch.undo()
        assert back.rows == original.rows + [(None, "zz"), (7, None)]
        (restored,) = back._columnar
        for saved, loaded in zip(scanned.columns, restored.columns):
            assert loaded.kind == saved.kind
            assert bytes(loaded.data) == bytes(saved.data)
            assert loaded.valid is not None  # both columns hold a NULL now
            assert loaded.valid.tolist() == saved.valid.tolist()
            assert loaded.dictionary == saved.dictionary
        assert restored.columns[1].dictionary == ["b", "a", "zz"]
        # ... which is what encoding the rows afresh would have written.
        fresh = ColumnarRelation.from_relation(back)
        assert [bytes(c.data) for c in fresh.columns] \
            == [bytes(c.data) for c in restored.columns]

    def test_first_query_and_post_insert_query_hit_the_mapped_encoding(
            self, tmp_path):
        # (Was an inline script of the CI binary-persistence smoke.)  The
        # mapped columns are the one encoding of a loaded table: the
        # first query over it hits and never re-encodes — completion
        # included, gmdj_optimized fuses Thm 4.1 into this scan — and so
        # does the query after an insert, which extended a *copy*: the
        # mapped files are read, never written.
        from repro import QueryOptions
        from repro.bench.workloads import build_fig2
        from repro.cli import load_data_directory
        from repro.obs.metrics import metrics_scope

        workload = build_fig2(400)
        save_catalog_binary(workload.catalog, tmp_path)

        def file_bytes():
            return {path.relative_to(tmp_path): path.read_bytes()
                    for path in sorted(tmp_path.rglob("*")) if path.is_file()}

        on_disk = file_bytes()
        database = Database()
        load_data_directory(database, tmp_path)
        sql = ("SELECT c.custkey FROM customer c WHERE EXISTS "
               "(SELECT * FROM orders o WHERE o.custkey = c.custkey "
               "AND o.totalprice > 300000)")
        options = QueryOptions(backend="numpy", use_cache=False)
        row = QueryOptions(strategy=options.strategy, backend="row",
                           use_cache=False)
        with metrics_scope() as registry:
            first = database.execute_sql(sql, options).rows
            assert registry.counter("columnar.cache_misses").value == 0
            assert registry.counter("columnar.cache_hits").value >= 1
        assert first == database.execute_sql(sql, row).rows
        (mapped,) = database.table("orders")._columnar
        assert all(is_mapped(column.data) for column in mapped.columns)
        template = database.table("orders").rows[0]
        newcomer = max({key for key, *_ in database.table("customer").rows}
                       - {key for (key,) in first})
        custkey = database.table("orders").schema.index_of("custkey")
        price = database.table("orders").schema.index_of("totalprice")
        inserted = list(template)
        inserted[custkey], inserted[price] = newcomer, 999999.0
        with metrics_scope() as registry:
            database.insert("orders", [tuple(inserted)])
            after = database.execute_sql(sql, options).rows
            assert registry.counter("columnar.cache_misses").value == 0
            assert registry.counter("columnar.appends").value == 1
        assert after == database.execute_sql(sql, row).rows
        assert sorted(after) == sorted(first + [(newcomer,)])
        assert file_bytes() == on_disk
        assert database.table("orders")._columnar[0] is not mapped
        assert mapped.length == len(workload.catalog.table("orders"))

    def test_vectorized_query_over_loaded_table(self, tmp_path):
        from repro.algebra.expressions import col, lit
        from repro.algebra.nested import Exists, NestedSelect, Subquery
        from repro.algebra.operators import ScanTable
        from repro.gmdj import evaluate_plan_vectorized
        from repro.unnesting import subquery_to_gmdj

        database = Database()
        detail = sample_relation()
        save_binary(detail, tmp_path / "r")
        database.load_binary("R", tmp_path / "r.cols")
        database.create_table("B", [("K", DataType.INTEGER)],
                              [(k,) for k in range(-2, 6)])
        query = NestedSelect(
            ScanTable("B", "b"),
            Exists(Subquery(ScanTable("R", "r"),
                            (col("r.K") == col("b.K"))
                            & (col("r.F") > lit(0.0)))),
        )
        plan = subquery_to_gmdj(query, database.catalog, optimize=True)
        expected = plan.evaluate(database.catalog)
        for backend in ("python", "numpy"):
            result = evaluate_plan_vectorized(
                plan, database.catalog, None, backend=backend)
            assert expected.bag_equal(result)


def _set_value(path, position, value):
    values = np.load(path)
    values[position] = value
    np.save(path, values)


def _edit_field(path, position, **changes):
    manifest = json.loads((path / "manifest.json").read_text())
    manifest["fields"][position].update(changes)
    (path / "manifest.json").write_text(json.dumps(manifest))


#: Corruptions of a saved ``[(1, "a", False), (None, "b", True)]`` that
#: would otherwise load as wrong rows or fail with a bare Python error.
CORRUPTIONS = {
    "dict code -1": lambda path: _set_value(path / "c1.npy", 0, -1),
    "dict code past the dictionary":
        lambda path: _set_value(path / "c1.npy", 0, 2),
    "mask byte 2": lambda path: _set_value(path / "c0.mask.npy", 1, 2),
    "bool byte 7": lambda path: _set_value(path / "c2.npy", 0, 7),
    "unknown kind": lambda path: _edit_field(path, 0, kind="decimal"),
    "kind disagrees with dtype":
        lambda path: _edit_field(path, 0, dtype="string"),
}


class TestManifestErrors:
    @pytest.mark.parametrize("corruption", list(CORRUPTIONS))
    def test_corrupt_column_contents_fail_closed(self, tmp_path, corruption):
        relation = Relation.from_columns(
            [("K", DataType.INTEGER), ("S", DataType.STRING),
             ("B", DataType.BOOLEAN)],
            [(1, "a", False), (None, "b", True)], name="t")
        path = save_binary(relation, tmp_path / "t")
        assert load_binary(path).rows == relation.rows
        CORRUPTIONS[corruption](path)
        with pytest.raises(SchemaError):
            load_binary(path)

    def test_missing_manifest(self, tmp_path):
        (tmp_path / "x.cols").mkdir()
        with pytest.raises(SchemaError, match="manifest"):
            load_binary(tmp_path / "x.cols")

    def test_unknown_format(self, tmp_path):
        directory = tmp_path / "x.cols"
        directory.mkdir()
        (directory / "manifest.json").write_text(
            json.dumps({"format": "other", "version": 1}))
        with pytest.raises(SchemaError, match="format"):
            load_binary(directory)

    def test_unsupported_version(self, tmp_path):
        directory = tmp_path / "x.cols"
        directory.mkdir()
        (directory / "manifest.json").write_text(
            json.dumps({"format": "repro-columnar", "version": 99}))
        with pytest.raises(SchemaError, match="version"):
            load_binary(directory)

    def test_row_count_mismatch(self, tmp_path):
        relation = sample_relation(rows=10)
        path = save_binary(relation, tmp_path / "t")
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["rows"] = 99
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SchemaError, match="99-row"):
            load_binary(path)

    def test_corrupt_npy_magic(self, tmp_path):
        path = save_binary(sample_relation(rows=4), tmp_path / "t")
        target = path / "c0.npy"
        target.write_bytes(b"not an npy file at all")
        with pytest.raises(SchemaError, match="not an NPY file"):
            load_binary(path)

    def test_unsupported_npy_version(self, tmp_path):
        path = save_binary(sample_relation(rows=4), tmp_path / "t")
        target = path / "c0.npy"
        data = bytearray(target.read_bytes())
        data[6] = 9  # the major version byte after the magic
        target.write_bytes(bytes(data))
        with pytest.raises(SchemaError, match="unsupported NPY version 9"):
            load_binary(path)

    @pytest.mark.parametrize("name", ["c0.npy", "c0.mask.npy"])
    def test_truncated_column_file(self, tmp_path, name):
        path = save_binary(sample_relation(rows=10), tmp_path / "t")
        target = path / name
        target.write_bytes(target.read_bytes()[:-3])
        with pytest.raises(SchemaError, match="truncated"):
            load_binary(path)

    def test_descr_disagrees_with_manifest(self, tmp_path):
        path = save_binary(sample_relation(rows=10), tmp_path / "t")
        # c2 is the float column: same width as int64, different descr.
        (path / "c0.npy").write_bytes((path / "c2.npy").read_bytes())
        with pytest.raises(SchemaError, match="manifest says <i8"):
            load_binary(path)


def compat_relation():
    """What ``tests/data/compat.cols`` holds: ±0.0, a NULL-bearing int,
    unicode strings, a NULL-bearing bool and a >64-bit object column."""
    return Relation.from_columns(
        [("id", DataType.INTEGER), ("price", DataType.FLOAT),
         ("qty", DataType.INTEGER), ("city", DataType.STRING),
         ("flag", DataType.BOOLEAN), ("big", DataType.INTEGER)],
        [(1, 0.0, 5, "Zürich", True, 2 ** 70),
         (2, -0.0, None, "東京", False, -(2 ** 90)),
         (3, 1.5, -7, "Zürich", None, None),
         (4, -2.25, 2 ** 63 - 1, "", True, 3)],
        name="compat", qualifier="compat")


class TestFormatCompatibility:
    """``tests/data/compat.cols`` was written by the hand-written NPY v1
    writer the format shipped with (commit 254bbc8); the reader and the
    writer must both still agree with it byte for byte."""

    def test_checked_in_directory_loads_to_its_rows(self):
        expected = compat_relation()
        back = load_binary(COMPAT)
        assert back.rows == expected.rows
        for original, restored in zip(expected.rows, back.rows):
            for a, b in zip(original, restored):
                assert type(a) is type(b)
        assert [math.copysign(1.0, row[1]) for row in back.rows] \
            == [1.0, -1.0, 1.0, -1.0]
        assert [column.kind for column in back._columnar[0].columns] \
            == ["int", "float", "int", "dict", "bool", "object"]

    def test_save_binary_writes_the_same_bytes(self, tmp_path):
        path = save_binary(compat_relation(), tmp_path / "compat")
        written = sorted(entry.name for entry in path.iterdir())
        assert written == sorted(entry.name for entry in COMPAT.iterdir())
        for name in written:
            assert (path / name).read_bytes() \
                == (COMPAT / name).read_bytes(), name

