"""A write extends the table's columnar encoding instead of dropping it.

``ColumnarRelation.appended(rows)`` must be indistinguishable from a
fresh ``from_relation`` over all the rows — kind, array dtype and
bytes, mask present iff a NULL was seen, dictionary order, the
``object`` fallback — for any sequence of deltas, and must never write
to the encoding it started from: a reader that resolved the old arrays
keeps exactly those.
"""

from __future__ import annotations

import random

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.fuzz.datagen import random_database
from repro.obs.metrics import metrics_scope
from repro.obs.tracer import tracing
from repro.storage import DataType, Relation
from repro.storage.columnar import ColumnarRelation, cached_columnar

COLUMNS = [("k", DataType.INTEGER), ("x", DataType.INTEGER),
           ("s", DataType.STRING), ("f", DataType.FLOAT),
           ("b", DataType.BOOLEAN)]


def relation_of(rows, validate=True):
    return Relation(Relation.from_columns(COLUMNS).schema, rows, name="t",
                    validate=validate)


def column_state(columnar):
    """Everything a kernel can observe of an encoding, column by column."""
    return [
        (column.kind,
         list(column.data) if column.kind == "object"
         else (column.data.dtype.str, column.data.tobytes()),
         None if column.valid is None else column.valid.tobytes(),
         column.dictionary)
        for column in columnar.columns
    ]


@st.composite
def tables(draw):
    """``fuzz/datagen``'s NULL-heavy, duplicate-heavy B rows (int key,
    int value, pooled string), widened with a float and a boolean column
    and — sometimes — a value no typed buffer holds: a >64-bit int."""
    seed = draw(st.integers(0, 2 ** 32))
    rng = random.Random(seed)
    spec = random_database(rng, max_rows=draw(st.integers(0, 14)))
    null_rate = rng.choice([0.0, 0.1, 0.4])
    overflow = draw(st.sampled_from([0.0, 0.0, 0.15]))

    def maybe(value):
        return None if rng.random() < null_rate else value

    rows = []
    for k, x, s in spec.tables["B"].rows:
        if x is not None and rng.random() < overflow:
            x = 2 ** 70 + x
        rows.append((k, x, s, maybe(rng.choice([-1.5, 0.0, -0.0, 9.25])),
                     maybe(rng.random() < 0.5)))
    cuts = draw(st.lists(st.integers(0, len(rows)), max_size=4))
    return rows, sorted(cuts)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(tables())
def test_appended_equals_a_fresh_encode(table):
    rows, cuts = table
    bounds = [0] + cuts + [len(rows)]  # empty table / empty deltas included
    relation = relation_of(rows)
    encoding = ColumnarRelation.from_relation(relation_of(rows[:cuts[0]]
                                                          if cuts else rows))
    for start, stop in zip(bounds[1:], bounds[2:]):
        before = column_state(encoding)
        grown = encoding.appended(relation.rows[start:stop])
        assert column_state(encoding) == before  # the old one is a value
        encoding = grown
    fresh = ColumnarRelation.from_relation(relation)
    assert encoding.length == fresh.length == len(rows)
    assert column_state(encoding) == column_state(fresh)
    assert encoding.to_rows() == relation.rows
    for position, column in enumerate(fresh.columns):
        assert encoding.word_codes(position) == fresh.word_codes(position)
        # Mask present iff a NULL was seen (object columns always mask).
        if column.kind != "object":
            saw_null = any(row[position] is None for row in rows)
            assert (encoding.columns[position].valid is not None) == saw_null


class TestEncoderContractsCarryOver:
    def test_null_into_a_mask_free_column_materializes_the_mask(self):
        encoding = ColumnarRelation.from_relation(
            relation_of([(1, 2, "a", 0.5, True), (2, 3, "b", 1.5, False)]))
        assert encoding.mask_free_columns() == 5
        grown = encoding.appended([(None, 4, "a", None, True)])
        assert [None if c.valid is None else c.valid.tolist()
                for c in grown.columns] == [
            [True, True, False], None, None, [True, True, False], None]
        assert encoding.mask_free_columns() == 5

    def test_new_word_extends_a_copy_of_the_dictionary(self):
        encoding = ColumnarRelation.from_relation(
            relation_of([(1, 1, "b", 0.0, True), (1, 1, "a", 0.0, True)]))
        grown = encoding.appended([(1, 1, "c", 0.0, True),
                                   (1, 1, "a", 0.0, True),
                                   (1, 1, None, 0.0, True)])
        assert encoding.columns[2].dictionary == ["b", "a"]
        assert grown.columns[2].dictionary == ["b", "a", "c"]
        assert list(grown.columns[2].data) == [0, 1, 2, 1, 0]
        # No new word: the dictionary (and its inverse) is shared as is.
        same = grown.appended([(1, 1, "b", 0.0, True)])
        assert same.columns[2].dictionary is grown.columns[2].dictionary

    def test_value_the_buffer_cannot_hold_reencodes_that_one_column(self):
        encoding = ColumnarRelation.from_relation(
            relation_of([(1, 2, "a", 0.5, True)]))
        with metrics_scope() as registry, tracing() as tracer:
            grown = encoding.appended([(2 ** 70, 3, "a", 0.5, False)])
        assert [c.kind for c in grown.columns] == [
            "object", "int", "dict", "float", "bool"]
        assert grown.to_rows() == [(1, 2, "a", 0.5, True),
                                   (2 ** 70, 3, "a", 0.5, False)]
        assert encoding.columns[0].kind == "int"
        assert registry.counter("columnar.appends").value == 1
        assert registry.counter("columnar.append_reencodes").value == 1
        (span,) = tracer.trace().find(kind="columnar_append")
        (reason,) = span.attrs["reencoded"]
        assert reason.startswith("k: int buffer cannot hold")
        # An object column stays one, and is no longer a re-encode.
        with metrics_scope() as registry:
            again = grown.appended([(5, 5, "a", 0.5, True)])
            assert registry.counter("columnar.append_reencodes").value == 0
        assert again.columns[0].kind == "object"

    def test_mistyped_value_in_an_unvalidated_relation(self):
        # Intermediates are built with validate=False: the declared
        # dtype is not a promise, and the fallback is the same one.
        encoding = ColumnarRelation.from_relation(
            relation_of([(1, 2, "a", 0.5, True)]))
        grown = encoding.appended([(1, 2.5, "a", 0.5, True)])
        fresh = ColumnarRelation.from_relation(relation_of(
            [(1, 2, "a", 0.5, True), (1, 2.5, "a", 0.5, True)],
            validate=False))
        assert column_state(grown) == column_state(fresh)


class TestRelationExtend:
    def test_extend_replaces_the_encoding_and_keeps_the_old_one_intact(self):
        relation = relation_of([(1, 2, "a", 0.5, True)] * 3)
        resolved = cached_columnar(relation)
        before = column_state(resolved)
        relation.extend([(None, 7, "z", None, False), (4, 4, "a", 0.0, True)])
        current = cached_columnar(relation)
        # The reader's snapshot: same length, byte-identical buffers.
        assert resolved.length == 3
        assert column_state(resolved) == before
        assert current is not resolved
        assert current.length == len(relation) == 5
        assert column_state(current) == column_state(
            ColumnarRelation.from_relation(relation))

    def test_a_bad_row_changes_nothing(self):
        import pytest

        from repro.errors import ReproError

        relation = relation_of([(1, 2, "a", 0.5, True)])
        resolved = cached_columnar(relation)
        with pytest.raises(ReproError):
            relation.extend([(2, 2, "b", 0.5, True), (3, "oops", "c", 0.5,
                                                      True)])
        assert relation.rows == [(1, 2, "a", 0.5, True)]
        assert cached_columnar(relation) is resolved

    def test_a_failed_append_changes_nothing(self, monkeypatch):
        # The encoding is grown before the row list: an append that
        # raises (e.g. a buffer it cannot view as bytes) must not leave
        # rows one longer than the arrays every later scan reads.
        import pytest

        relation = relation_of([(1, 2, "a", 0.5, True)])
        resolved = cached_columnar(relation)

        def refuse(self, rows):
            raise BufferError("not contiguous")

        monkeypatch.setattr(ColumnarRelation, "appended", refuse)
        with pytest.raises(BufferError):
            relation.extend([(2, 2, "b", 0.5, True)])
        assert relation.rows == [(1, 2, "a", 0.5, True)]
        assert cached_columnar(relation) is resolved
        assert resolved.length == len(relation) == 1

    def test_scan_views_see_the_extended_encoding(self):
        relation = relation_of([(1, 2, "a", 0.5, True)])
        view = relation.rename("q")
        cached_columnar(view)
        relation.insert((2, 3, "b", 1.5, False))
        with metrics_scope() as registry:
            assert cached_columnar(view).length == 2
            assert cached_columnar(relation).to_rows() == relation.rows
            assert registry.counter("columnar.cache_misses").value == 0

    def test_a_relation_holding_only_columns_grows_without_a_row_list(self):
        encoding = ColumnarRelation.from_relation(
            relation_of([(1, 2, "a", 0.5, True)]))
        relation = Relation.column_backed(encoding, name="t")
        relation.insert((2, 3, "b", 1.5, False))
        assert relation._rows is None and len(relation) == 2
        assert relation.rows == [(1, 2, "a", 0.5, True),
                                 (2, 3, "b", 1.5, False)]
        assert encoding.length == 1

    def test_extended_is_copy_on_write(self):
        relation = relation_of([(1, 2, "a", 0.5, True)])
        resolved = cached_columnar(relation)
        with metrics_scope() as registry:
            grown = relation.extended([(2, 3, "b", 1.5, False)])
            assert cached_columnar(grown).length == 2
            assert registry.counter("columnar.cache_misses").value == 0
        assert grown.rows is not relation.rows and len(relation) == 1
        assert cached_columnar(relation) is resolved
        # A table nobody encoded stays unencoded: nothing to extend.
        plain = relation_of([(1, 2, "a", 0.5, True)])
        assert not plain.extended([(2, 3, "b", 1.5, False)])._columnar


def test_a_registered_array_result_extends_its_ndarray_columns():
    # A numpy-kernel result carries the ndarrays the kernel gathered
    # (bool masks included); registered as a table it is extended like
    # any other encoding, into arrays of the encoder's dtypes.
    from repro import Database, QueryOptions

    db = Database()
    db.create_table("T", COLUMNS, [(1, 2, "a", 0.5, True),
                                   (None, 3, None, None, False),
                                   (4, 5, "b", 1.5, None)])
    options = QueryOptions(backend="numpy", use_cache=False)
    cached_columnar(db.table("T"))  # an encoded table filters on arrays
    result = db.execute_sql("SELECT * FROM T t WHERE t.x > 2", options)
    (encoding,) = result._columnar
    db.register("U", result)
    db.insert("U", [(7, None, "c", 2.5, True)])
    (grown,) = db.table("U")._columnar
    assert grown.to_rows() == db.table("U").rows == [
        (None, 3, None, None, False), (4, 5, "b", 1.5, None),
        (7, None, "c", 2.5, True)]
    # (Not byte-equal to a fresh encode: a filtered column keeps its
    # source's whole dictionary, unused words included.)
    assert grown.columns[2].dictionary == ["a", "b", "c"]
    assert [column.data.dtype for column in grown.columns] == [
        np.int64, np.int64, np.int32, np.float64, np.bool_]
    assert all(column.valid.dtype == np.bool_ for column in grown.columns)
    assert db.execute_sql("SELECT u.k FROM U u WHERE u.f > 2.0",
                          options).rows == [(7,)]
