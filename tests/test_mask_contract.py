"""Validity masks are the encoder's decision; the abstract interpreter
is a tool, not a step of query execution.

Three consequences, each of which failed before the change:

* no execute path calls ``certify_capabilities`` (or walks stored rows
  for nullability) — queries answer with both monkeypatched to raise;
* a NULL-free table scans mask-free, and the fact cannot go stale: a
  NULL inserted later lands in a fresh encoding that carries a mask;
* ``mask_skipped`` on the ``detail_scan`` span describes the encoding
  actually scanned, so solo, shared-scan and pool-worker runs agree.

The ``/query`` and ``/ddl`` halves live in test_serve_service.py, the
``load_binary`` half in test_binio.py.
"""

from __future__ import annotations

import pytest

import repro.lint.absint as absint
from repro import Database, DataType, QueryOptions
from repro.obs.tracer import Tracer, tracing

BACKENDS = ["row", "python", "numpy"]

EXISTS_SQL = ("SELECT b.K FROM B b WHERE EXISTS "
              "(SELECT * FROM R r WHERE r.K = b.K AND r.V > 15)")
COUNT_SQL = ("SELECT b.K FROM B b WHERE 2 <= "
             "(SELECT COUNT(*) FROM R r WHERE r.K = b.K)")
#: Holistic, so it stays a singleton next to any share group.
DISTINCT_SQL = ("SELECT b.K FROM B b WHERE 2 <= "
                "(SELECT COUNT(DISTINCT r.V) FROM R r WHERE r.K = b.K)")
ROW = QueryOptions(strategy="gmdj", backend="row", use_cache=False,
                   rollup="off")


def make_db(null_every: int | None = None) -> Database:
    """B(K) x R(K, V); ``null_every`` NULLs every n-th R.V."""
    db = Database()
    db.create_table("B", [("K", DataType.INTEGER)],
                    [(i,) for i in range(6)])
    db.create_table(
        "R", [("K", DataType.INTEGER), ("V", DataType.INTEGER)],
        [(i % 5, None if null_every and i % null_every == 0 else i)
         for i in range(80)],
    )
    return db


def forbid_certification(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the abstract interpreter ran on an "
                             "execute path")

    monkeypatch.setattr(absint, "certify_capabilities", refuse)
    monkeypatch.setattr(absint, "stored_nullability", refuse)


def scan_masks(run) -> list[int]:
    """``mask_skipped`` of every detail_scan span ``run`` produces."""
    tracer = Tracer()
    with tracing(tracer):
        run()
    scans = tracer.trace().find(kind="detail_scan")
    assert scans, "no detail scan ran"
    return [scan.attrs["mask_skipped"] for scan in scans]


@pytest.mark.parametrize("backend", BACKENDS)
class TestNoCertificationOnExecutePaths:
    def test_execute_sql(self, monkeypatch, backend):
        db = make_db(null_every=7)
        expected = db.execute_sql(EXISTS_SQL, ROW).rows
        forbid_certification(monkeypatch)
        options = QueryOptions(strategy="gmdj_optimized", backend=backend,
                               use_cache=False)
        assert db.execute_sql(EXISTS_SQL, options).rows == expected

    def test_execute_sql_batch(self, monkeypatch, backend):
        db = make_db(null_every=7)
        sqls = [EXISTS_SQL, COUNT_SQL, DISTINCT_SQL]
        expected = [db.execute_sql(sql, ROW).rows for sql in sqls]
        forbid_certification(monkeypatch)
        options = QueryOptions(strategy="gmdj", backend=backend,
                               use_cache=False)
        batch = db.execute_sql_batch(sqls, options)
        assert [item.result.rows for item in batch.items] == expected

    def test_rollup_hit(self, monkeypatch, backend):
        db = make_db(null_every=7)
        expected = db.execute_sql(COUNT_SQL, ROW).rows
        forbid_certification(monkeypatch)
        options = QueryOptions(strategy="gmdj", backend=backend,
                               rollup="subsume", use_cache=False)
        assert db.execute_sql(COUNT_SQL, options).rows == expected
        assert db.execute_sql(COUNT_SQL, options).rows == expected
        assert db.rollups.stats()["exact_hits"] == 1


class TestMaskFreeEncodingCannotGoStale:
    OPTIONS = QueryOptions(strategy="gmdj", backend="python",
                           use_cache=False, rollup="off")

    def test_null_inserted_after_a_mask_free_scan(self):
        db = make_db()
        run = lambda: db.execute_sql(EXISTS_SQL, self.OPTIONS)  # noqa: E731
        assert min(scan_masks(run)) >= 1
        (before,) = db.table("R")._columnar
        assert before.mask_free_columns() == 2

        db.insert("R", [(2, None), (5, 99)])
        assert run().rows == db.execute_sql(EXISTS_SQL, ROW).rows
        (after,) = db.table("R")._columnar
        assert after is not before and after.length == 82
        assert [column.mask_free for column in after.columns] == [True, False]
        assert scan_masks(run) == [1]


class TestMaskSkippedDescribesTheScannedEncoding:
    """K is NULL-free, V holds NULLs in every partition: one mask-free
    column per scanned encoding however the scan is scheduled."""

    BASE = dict(strategy="gmdj", backend="python", use_cache=False,
                rollup="off")

    def test_solo_shared_and_pooled_runs_agree(self):
        db = make_db(null_every=7)
        solo = scan_masks(lambda: db.execute_sql(
            COUNT_SQL, QueryOptions(**self.BASE)))
        assert solo == [1]

        def shared():
            batch = db.execute_sql_batch(
                [COUNT_SQL, EXISTS_SQL],
                QueryOptions(**self.BASE))
            assert batch.report.scans_saved >= 1

        assert scan_masks(shared) == solo
        pooled = scan_masks(lambda: db.execute_sql(
            COUNT_SQL,
            QueryOptions(partitions=2, workers=2, **self.BASE)))
        assert pooled == solo * 2
