"""The JSON ``rows`` of ``/query`` and ``/batch`` responses.

``serve.state.json_rows`` is the one encoder behind both endpoints; it
reads the row list the engine built at its boundary.  The response bytes
must not depend on whether the result also carries columns (an executed
query under the numpy kernel) or not (a row-kernel run, a result-cache
hit) — over NULLs, floats, strings, booleans and an empty result.
"""

from __future__ import annotations

import json

import pytest

from repro import Database, DataType, QueryOptions
from repro.serve.http import json_response
from repro.serve.state import Tenant, json_rows
from repro.storage.columnar import is_encoded

QUERIES = [
    # NULLs, floats (whole, fractional, negative zero), strings, bools.
    "SELECT k, f, s, b FROM T",
    "SELECT f * 2 AS g, s FROM T WHERE f IS NOT NULL",
    # An aggregate column with NULL for the empty group.
    "SELECT t.k, (SELECT AVG(r.v) FROM R r WHERE r.k = t.k) a FROM T t",
    # An empty result.
    "SELECT k, s FROM T WHERE k > 100",
    "SELECT t.k FROM T t WHERE EXISTS "
    "(SELECT * FROM R r WHERE r.k = t.k AND r.v > 1000)",
]


def make_db() -> Database:
    db = Database()
    db.create_table(
        "T", [("k", DataType.INTEGER), ("f", DataType.FLOAT),
              ("s", DataType.STRING), ("b", DataType.BOOLEAN)],
        [(1, 1.0, "pear", True), (2, 2.5, None, False),
         (None, None, "fig", None), (4, -0.0, "", True),
         (5, 1e-7, 'q"uote', None)])
    db.create_table(
        "R", [("k", DataType.INTEGER), ("v", DataType.INTEGER)],
        [(1, 10), (1, 15), (2, None), (4, 3)])
    return db


def options(backend: str, **extra) -> QueryOptions:
    return QueryOptions(backend=backend, use_cache=False, rollup="off",
                        **extra)


def reference_rows(sql: str) -> list[list]:
    return [list(row) for row in make_db().execute_sql(
        sql, options("row")).rows]


@pytest.mark.parametrize("sql", QUERIES)
@pytest.mark.parametrize(
    "backend", ["row", "python", "numpy"])
def test_query_rows_bytes_do_not_depend_on_the_backend(sql, backend):
    tenant = Tenant(name="t", db=make_db())
    tenant.run_query(sql, options(backend))  # encodes what a scan touches
    payload = tenant.run_query(sql, options(backend))
    expected = reference_rows(sql)
    assert payload["row_count"] == len(expected)
    assert json.dumps(payload["rows"]) == json.dumps(expected)
    body = json_response(200, payload)
    assert json.dumps(expected).encode() in body


def test_column_backed_and_row_backed_results_encode_the_same_bytes():
    db = make_db()
    for sql in QUERIES:
        result = db.execute_sql(sql, options("numpy"))
        rows = [list(row) for row in result.rows]
        assert json.dumps(json_rows(result)) == json.dumps(rows)
        assert [[type(v) for v in row] for row in json_rows(result)] \
            == [[type(v) for v in row] for row in rows]
    # ... and the subquery results above did still carry their columns.
    assert is_encoded(db.execute_sql(QUERIES[2], options("numpy")))
    # A cache hit hands back a row-backed copy: same bytes again.
    cached = QueryOptions(backend="numpy", rollup="off")
    first = db.execute_sql(QUERIES[2], cached)
    hit = db.execute_sql(QUERIES[2], cached)
    assert not is_encoded(hit)
    assert json.dumps(json_rows(hit)) == json.dumps(json_rows(first))


def test_batch_members_use_the_same_encoder():
    tenant = Tenant(name="t", db=make_db())
    payload = tenant.run_batch(QUERIES, options("numpy"))
    for sql, member in zip(QUERIES, payload["results"]):
        assert json.dumps(member["rows"]) \
            == json.dumps(reference_rows(sql)), sql
