"""End-to-end tests for the serving tier's batch MQO path.

Covers the ``/batch`` endpoint: shared-scan execution over HTTP, with
fractional per-member attribution that reconciles against the batch
totals — the ``/metrics`` consistency contract.  ``/batch`` is the one
way to send a batch: a ``/query`` is never held back to join others."""

from __future__ import annotations

import threading
import time

import pytest

from repro.serve import ServeConfig
from repro.storage.attempt import attempting
from tests.test_serve_service import LiveServer

COMPATIBLE = [
    ("SELECT K FROM B b WHERE EXISTS "
     "(SELECT * FROM R r WHERE r.K = b.K)"),
    ("SELECT K FROM B b WHERE EXISTS "
     "(SELECT * FROM R r WHERE r.K = b.K AND r.V > 8)"),
    ("SELECT K FROM B b WHERE EXISTS "
     "(SELECT * FROM R r WHERE r.K = b.K AND r.V < 6)"),
]


@pytest.fixture
def live_server():
    servers = []

    def make(**overrides):
        server = LiveServer(**overrides)
        servers.append(server)
        return server

    yield make
    for server in servers:
        server.stop()


class TestBatchEndpoint:
    def test_batch_shares_scans_and_matches_query(self, live_server):
        server = live_server()
        server.create_tables()
        status, payload = server.post("/batch", {"queries": COMPATIBLE})
        assert status == 200
        assert payload["scans_saved"] >= 1
        assert "mqo" not in payload["batch"]
        assert len(payload["results"]) == len(COMPATIBLE)
        for sql, member in zip(COMPATIBLE, payload["results"]):
            q_status, single = server.post(
                "/query", {"sql": sql, "options": {"use_cache": False}})
            assert q_status == 200
            assert member["rows"] == single["rows"]
            assert member["columns"] == single["columns"]

    def test_fractional_attribution_reconciles(self, live_server):
        server = live_server()
        server.create_tables()
        _, payload = server.post("/batch", {"queries": COMPATIBLE})
        members = payload["results"]
        shared = [m for m in members if m["shared"]]
        assert shared, "expected shared members in a compatible batch"
        # Per-member fractional detail scans sum to the request's total.
        total = sum(m["detail_scans"] for m in members)
        assert total == pytest.approx(payload["detail_scans"])
        # Per-member io sums reconcile with the batch io totals (the
        # wire payload rounds each fraction to 4 decimals, so allow
        # that much slack per member).
        for key, value in payload["io"].items():
            summed = sum(m["io"].get(key, 0) for m in members)
            assert summed == pytest.approx(
                value, abs=5e-4 * len(members)
            )

    def test_batch_certificate_rides_along(self, live_server):
        server = live_server()
        server.create_tables()
        _, payload = server.post("/batch", {"queries": COMPATIBLE[:2]})
        groups = payload["batch"]["share_groups"]
        assert len(groups) == 1
        assert groups[0]["certified"] is True
        assert groups[0]["runtime_detail_scans"] == 1
        certificate = payload["batch"]["certificate"]
        assert certificate["detail_scan_counts"] == {"R": 1}

    def test_mqo_option_rejected_over_http(self, live_server):
        # A batch always shares; no request can turn that off.
        server = live_server()
        server.create_tables()
        for path, body in (("/batch", {"queries": COMPATIBLE[:2]}),
                           ("/query", {"sql": COMPATIBLE[0]})):
            status, payload = server.post(
                path, dict(body, options={"mqo": "off"}))
            assert status == 400
            assert "mqo" in payload["error"]
        assert server.service.tenants.get("default").queries == 0

    def test_bad_bodies_are_400(self, live_server):
        server = live_server()
        server.create_tables()
        for body in ({}, {"queries": []}, {"queries": "SELECT 1"},
                     {"queries": [""]}):
            status, _ = server.post("/batch", body)
            assert status == 400

    def test_get_is_405(self, live_server):
        server = live_server()
        status, _ = server.get("/batch")
        assert status == 405

    def test_ddl_waits_for_a_batch_in_flight(self, live_server, monkeypatch):
        # An insert racing a /batch queues behind the batch's read lock:
        # every member answers from the pre-insert catalog, and the next
        # batch sees the row (no stale cache or rollup serves it).  The
        # batch is held on its worker thread; the event loop's attempt
        # runs through and hands off at its first scan.
        server = live_server()
        server.create_tables()
        tenant = server.service.tenants.get("default")
        entered, release = threading.Event(), threading.Event()
        execute = tenant.db.execute_batch

        def held(*args, **kwargs):
            if not attempting():
                entered.set()
                assert release.wait(30)
            return execute(*args, **kwargs)

        monkeypatch.setattr(tenant.db, "execute_batch", held)
        body = {"queries": COMPATIBLE[:2], "options": {"rollup": "subsume"}}
        answers, ddl = [], []
        batch = threading.Thread(
            target=lambda: answers.append(server.post("/batch", body)))
        batch.start()
        assert entered.wait(30)
        insert = threading.Thread(target=lambda: ddl.append(server.post(
            "/ddl", {"statement": {"op": "insert", "name": "R",
                                   "rows": [[3, 9]]}})))
        insert.start()
        deadline = time.monotonic() + 30
        while tenant.lock.snapshot()["writers_waiting"] != 1:
            assert time.monotonic() < deadline, "the insert never queued"
            time.sleep(0.01)
        assert ddl == []
        release.set()
        batch.join(30)
        insert.join(30)

        def rows(answer):
            status, payload = answer
            assert status == 200
            return [sorted(member["rows"]) for member in payload["results"]]

        assert rows(answers[0]) == [[[1], [2]], [[1]]]
        assert ddl[0][0] == 200
        assert rows(server.post("/batch", body)) == [[[1], [2], [3]],
                                                     [[1], [3]]]


class TestBatchWindow:
    def test_window_off_by_default(self, live_server):
        # There is no batch window: ServeConfig has no setting for one,
        # and a /query is answered alone, never as a batch member.
        with pytest.raises(TypeError, match="batch_window_ms"):
            ServeConfig(batch_window_ms=50.0)
        server = live_server()
        sql = server.create_tables()
        _, payload = server.post("/query", {"sql": sql})
        assert payload["served_by"] == "execute"


QUERY_KEYS = {"tenant", "columns", "rows", "row_count", "elapsed_ms",
              "served_by", "detail_scans", "io", "metrics"}
BATCH_KEYS = {"tenant", "results", "batch", "scans_saved", "elapsed_ms",
              "detail_scans", "io", "metrics"}
MEMBER_KEYS = {"index", "columns", "rows", "row_count", "elapsed_ms",
               "group", "shared", "detail_scans", "io"}


class TestResponseKeys:
    def test_query_and_batch_keys(self, live_server):
        server = live_server()
        sql = server.create_tables()
        _, executed = server.post("/query", {"sql": sql})
        _, cached = server.post("/query", {"sql": sql})
        assert set(executed) == set(cached) == QUERY_KEYS
        assert (executed["served_by"], cached["served_by"]) == (
            "execute", "cache")
        assert executed["detail_scans"] >= 1
        assert cached["detail_scans"] == 0
        _, batch = server.post("/batch", {"queries": COMPATIBLE})
        assert set(batch) == BATCH_KEYS
        for member in batch["results"]:
            assert set(member) == MEMBER_KEYS
