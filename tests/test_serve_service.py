"""End-to-end tests of the query service over real sockets.

A :class:`LiveServer` fixture boots the asyncio service on an ephemeral
port inside a background thread and talks plain ``http.client`` to it,
so everything here exercises the same wire path a real client sees:
routing, tenancy, the tiered cache/rollup/execute serving path, the
admission queue's 429 shedding, deadline 408s, drain 503s, and the
zero-detail-scan invariant for rollup-served requests — all asserted
through HTTP responses alone.

The overload tests are deterministic, not timing-based: they wedge the
default tenant's write lock from the test thread, which pins worker
threads in a known state, then read the admission counters through
``/healthz`` to sequence the scenario.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
import time

import pytest

from repro.serve import QueryService, ServeConfig

SQL = ("SELECT K FROM B b WHERE EXISTS "
       "(SELECT * FROM R r WHERE r.K = b.K)")

GMDJ_OPTS = {"strategy": "gmdj", "rollup": "subsume", "use_cache": False}


class LiveServer:
    """One service on an ephemeral port, driven from a loop thread."""

    def __init__(self, **overrides):
        self.config = ServeConfig(port=0, **overrides)
        self.service = QueryService(self.config)
        self.loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        assert self._ready.wait(10), "service failed to start"

    def _run(self):
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.service.start())
        self._ready.set()
        self.loop.run_forever()

    def stop(self):
        if self.loop.is_closed():
            return
        future = asyncio.run_coroutine_threadsafe(
            self.service.shutdown(), self.loop)
        future.result(20)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(10)
        self.loop.close()

    # -- plain-HTTP client helpers ------------------------------------------

    def request(self, method, path, payload=None, headers=None, timeout=30):
        connection = http.client.HTTPConnection(
            "127.0.0.1", self.service.port, timeout=timeout)
        try:
            body = payload if payload is None or isinstance(payload, str) \
                else json.dumps(payload)
            connection.request(method, path, body=body,
                               headers=headers or {})
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def get(self, path, **kwargs):
        return self.request("GET", path, **kwargs)

    def post(self, path, payload, **kwargs):
        return self.request("POST", path, payload, **kwargs)

    def create_tables(self, tenant="default"):
        for statement in (
            {"op": "create_table", "name": "B",
             "columns": [["K", "integer"]], "rows": [[1], [2], [3]]},
            {"op": "create_table", "name": "R",
             "columns": [["K", "integer"], ["V", "integer"]],
             "rows": [[1, 10], [1, 20], [2, 5]]},
        ):
            status, _ = self.post(
                "/ddl", {"tenant": tenant, "statement": statement})
            assert status == 200
        return SQL

    def wait_admission(self, predicate, timeout=10):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            _, health = self.get("/healthz")
            if predicate(health["admission"]):
                return health["admission"]
            time.sleep(0.01)
        raise AssertionError("admission state never reached")


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


class TestEndpoints:
    def test_healthz(self, live_server):
        server = live_server()
        status, health = server.get("/healthz")
        assert status == 200
        assert health["status"] == "ok"
        assert health["admission"]["workers"] == server.config.workers

    def test_query_roundtrip_and_cache_tier(self, live_server):
        server = live_server()
        sql = server.create_tables()
        status, first = server.post("/query", {"sql": sql})
        assert status == 200
        assert first["columns"] == ["b.K"]
        assert sorted(first["rows"]) == [[1], [2]]
        assert first["served_by"] == "execute"
        _, again = server.post("/query", {"sql": sql})
        assert again["served_by"] == "cache"
        assert sorted(again["rows"]) == [[1], [2]]

    def test_rollup_hit_reports_zero_detail_scans(self, live_server):
        server = live_server()
        sql = server.create_tables()
        _, warm = server.post("/query", {"sql": sql, "options": GMDJ_OPTS})
        assert warm["served_by"] == "execute"
        assert warm["detail_scans"] >= 1
        _, hit = server.post("/query", {"sql": sql, "options": GMDJ_OPTS})
        assert hit["served_by"] == "rollup"
        assert hit["detail_scans"] == 0
        assert hit["rows"] == warm["rows"]

    def test_insert_invalidates_over_http(self, live_server):
        server = live_server()
        sql = server.create_tables()
        _, before = server.post("/query", {"sql": sql})
        assert sorted(before["rows"]) == [[1], [2]]
        status, _ = server.post("/ddl", {"statement": {
            "op": "insert", "name": "R", "rows": [[3, 9]]}})
        assert status == 200
        _, after = server.post("/query", {"sql": sql})
        assert sorted(after["rows"]) == [[1], [2], [3]]
        assert after["served_by"] == "execute"  # the cache did not lie

    @pytest.mark.parametrize("backend", ["row", "python", "numpy"])
    def test_query_never_runs_the_abstract_interpreter(
            self, live_server, monkeypatch, backend):
        from tests.test_mask_contract import forbid_certification

        server = live_server()
        sql = server.create_tables()
        forbid_certification(monkeypatch)
        options = {"strategy": "gmdj", "backend": backend,
                   "use_cache": False, "rollup": "subsume"}
        for served_by in ("execute", "rollup"):
            status, payload = server.post(
                "/query", {"sql": sql, "options": options})
            assert status == 200, payload
            assert payload["served_by"] == served_by
            assert sorted(payload["rows"]) == [[1], [2]]

    def test_null_inserted_over_ddl_gets_a_mask(self, live_server):
        server = live_server()
        server.create_tables()
        sql = ("SELECT K FROM B b WHERE EXISTS "
               "(SELECT * FROM R r WHERE r.K = b.K AND r.V > 7)")
        options = {"strategy": "gmdj", "backend": "python",
                   "use_cache": False, "rollup": "off"}
        database = server.service.tenants.get("default").db
        _, before = server.post("/query", {"sql": sql, "options": options})
        assert sorted(before["rows"]) == [[1]]
        (encoding,) = database.table("R")._columnar
        assert encoding.mask_free_columns() == 2  # R is NULL-free so far
        status, _ = server.post("/ddl", {"statement": {
            "op": "insert", "name": "R", "rows": [[3, None], [3, 8]]}})
        assert status == 200
        _, after = server.post("/query", {"sql": sql, "options": options})
        _, row = server.post("/query", {"sql": sql, "options": dict(
            options, backend="row")})
        assert sorted(after["rows"]) == sorted(row["rows"]) == [[1], [3]]
        (encoding,) = database.table("R")._columnar
        assert ([column.mask_free for column in encoding.columns]
                == [True, False])

    def test_explain_plan_and_analyze(self, live_server):
        server = live_server()
        sql = server.create_tables()
        status, plain = server.post("/explain", {"sql": sql})
        assert status == 200
        assert "plan" in plain and plain["tenant"] == "default"
        status, analyzed = server.post(
            "/explain", {"sql": sql, "analyze": True})
        assert status == 200
        assert analyzed["executed"]
        assert "trace" in analyzed

    def test_metrics_aggregates(self, live_server):
        server = live_server()
        sql = server.create_tables()
        server.post("/query", {"sql": sql})
        status, metrics = server.get("/metrics")
        assert status == 200
        assert metrics["statuses"]["200"] >= 3
        assert metrics["tenants"]["default"]["queries"] == 1
        assert metrics["registry"]["counters"]["serve.requests"] >= 3

    def test_metrics_show_what_an_insert_cost_and_dropped(self, live_server):
        server = live_server()
        sql = server.create_tables()
        options = {"strategy": "gmdj", "backend": "python", "rollup": "off"}
        server.post("/query", {"sql": sql, "options": options})  # encodes R
        status, _ = server.post("/ddl", {"statement": {
            "op": "insert", "name": "R", "rows": [[3, 2 ** 70]]}})
        assert status == 200
        _, metrics = server.get("/metrics")
        counters = metrics["registry"]["counters"]
        for name in ("columnar.appends", "columnar.append_reencodes",
                     "cache.table_invalidations",
                     "rollup.table_invalidations"):
            assert counters[name] >= 1, name
        tenant = metrics["tenants"]["default"]
        assert tenant["cache"]["table_invalidations"] == 1
        assert tenant["cache"]["results"] == 0
        assert tenant["rollups"]["table_invalidations"] == 1

    def test_tenant_isolation(self, live_server):
        server = live_server()
        server.create_tables(tenant="alpha")
        # beta has no tables: the same SQL is an error there ...
        status, payload = server.post(
            "/query", {"tenant": "beta", "sql": SQL})
        assert status == 400
        assert "unknown table" in payload["error"]
        # ... and beta's own B/R (different rows) answer independently.
        for statement in (
            {"op": "create_table", "name": "B",
             "columns": [["K", "integer"]], "rows": [[7]]},
            {"op": "create_table", "name": "R",
             "columns": [["K", "integer"]], "rows": [[7]]},
        ):
            server.post("/ddl", {"tenant": "beta", "statement": statement})
        _, alpha = server.post("/query", {"tenant": "alpha", "sql": SQL})
        _, beta = server.post("/query", {"tenant": "beta", "sql": SQL})
        assert sorted(alpha["rows"]) == [[1], [2]]
        assert beta["rows"] == [[7]]

    def test_tenant_cap_is_429(self, live_server):
        server = live_server(max_tenants=1)
        server.get("/healthz")
        status, _ = server.post(
            "/query", {"tenant": "first", "sql": "SELECT 1"})
        assert status != 429  # first tenant fits (status is a 400: no tables)
        status, payload = server.post(
            "/query", {"tenant": "second", "sql": "SELECT 1"})
        assert status == 429
        assert "tenant limit" in payload["error"]

    def test_keep_alive_connection_reuse(self, live_server):
        server = live_server()
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.service.port, timeout=30)
        try:
            for _ in range(3):
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                assert response.status == 200
                response.read()
        finally:
            connection.close()


class TestErrorPaths:
    def test_unknown_route_is_404(self, live_server):
        assert live_server().get("/nope")[0] == 404

    def test_wrong_method_is_405(self, live_server):
        assert live_server().get("/query")[0] == 405

    def test_garbage_json_is_400(self, live_server):
        server = live_server()
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.service.port, timeout=30)
        try:
            connection.request("POST", "/query", body="{nope")
            assert connection.getresponse().status == 400
        finally:
            connection.close()

    def test_missing_sql_is_400(self, live_server):
        status, payload = live_server().post("/query", {})
        assert status == 400
        assert "sql" in payload["error"]

    @pytest.mark.parametrize("tail, message", [
        # SUPERSCRIPT TWO and ARABIC-INDIC DIGIT THREE are not numbers.
        ("WHERE K = \u00b2", "unexpected character"),
        ("WHERE K = \u0663", "unexpected character"),
        ("LIMIT 1.5", "expected an integer after LIMIT"),
        ("LIMIT 1 OFFSET 0.5", "expected an integer after OFFSET"),
    ])
    def test_malformed_numeric_literal_is_400(self, live_server, tail,
                                              message):
        server = live_server()
        server.create_tables()
        status, payload = server.post(
            "/query", {"sql": f"SELECT K FROM B {tail}"})
        assert status == 400
        assert message in payload["error"]

    def test_sum_over_a_string_column_is_400(self, live_server):
        server = live_server()
        status, _ = server.post("/ddl", {"statement": {
            "op": "create_table", "name": "S",
            "columns": [["N", "string"]], "rows": [["a"], ["b"]]}})
        assert status == 200
        status, payload = server.post(
            "/query", {"sql": "SELECT SUM(S.N) FROM S"})
        assert status == 400
        assert "over STRING" in payload["error"]

    def test_non_object_body_is_400(self, live_server):
        assert live_server().post("/query", [1, 2])[0] == 400

    @pytest.mark.parametrize("field, value", [
        ("trace", True),              # the server's decision
        ("mode", "gmdj_vectorized"),  # removed: kernel/fragmenter knobs
        ("lint", "strict"),           # removed: the execution gate
    ])
    def test_unknown_option_field_is_400(self, live_server, field, value):
        server = live_server()
        server.create_tables()
        status, payload = server.post(
            "/query", {"sql": SQL, "options": {field: value}})
        assert status == 400
        assert field in payload["error"]

    @pytest.mark.parametrize("options", [
        {"partitions": "2"}, {"workers": 1.5}, {"partitions": 2.5},
        {"workers": True}, {"use_cache": "no"},
        {"rollup": None}, {"rollup": "exact"},
    ], ids=repr)
    def test_wrongly_typed_option_is_400(self, live_server, options):
        server = live_server()
        server.create_tables()
        status, payload = server.post(
            "/query", {"sql": SQL, "options": options})
        assert status == 400
        assert next(iter(options)) in payload["error"]

    def test_bad_tenant_name_is_400(self, live_server):
        assert live_server().post(
            "/query", {"tenant": "no spaces!", "sql": "SELECT 1"})[0] == 400

    @pytest.mark.parametrize("path", ["/query", "/batch", "/ddl", "/explain"])
    @pytest.mark.parametrize("tenant", [5, "t1\n"], ids=repr)
    def test_tenant_that_is_not_a_whole_name_is_400(self, live_server, path,
                                                     tenant):
        # A number is no name; ``$`` alone would admit a trailing newline.
        server = live_server()
        status, payload = server.post(path, {
            "tenant": tenant, "sql": "SELECT 1", "sqls": ["SELECT 1"],
            "statement": {"op": "drop_table", "name": "B"}})
        assert status == 400, payload
        assert "invalid tenant name" in payload["error"]
        assert server.get("/healthz")[1]["tenants"] == 0

    def test_bad_ddl_op_is_400(self, live_server):
        status, payload = live_server().post(
            "/ddl", {"statement": {"op": "truncate"}})
        assert status == 400
        assert "unknown ddl op" in payload["error"]

    @pytest.mark.parametrize("where, deadline", [
        ("body", '"soon"'),
        ("body", "NaN"),        # not JSON
        ("body", "Infinity"),   # not JSON
        ("body", "-Infinity"),  # not JSON
        ("body", "1e309"),      # parses as inf
        ("body", "true"),       # a boolean, not 1 ms
        pytest.param("body", "1" + "0" * 400, id="body-10**400"),  # no float
        ("header", "nan"),
        ("header", "-nan"),
        ("header", "inf"),
        ("header", "1e309"),
    ])
    def test_bad_deadline_is_400(self, live_server, where, deadline):
        server = live_server()
        body = json.dumps({"sql": server.create_tables()})
        headers = None
        if where == "body":
            body = body[:-1] + f', "deadline_ms": {deadline}}}'
        else:
            headers = {"x-repro-deadline-ms": deadline}
        status, payload = server.post("/query", body, headers=headers)
        assert status == 400, payload
        assert "deadline_ms" in payload["error"] \
            or "is not JSON" in payload["error"], payload

    def test_oversized_body_is_413(self, live_server):
        server = live_server(max_body=128)
        status, _ = server.post("/query", {"sql": "x" * 1024})
        assert status == 413


class TestOverloadAndDeadlines:
    def test_deadline_while_blocked_is_408(self, live_server):
        server = live_server()
        sql = server.create_tables()
        tenant = server.service.tenants.get("default")
        tenant.lock.acquire_write()  # wedge every reader
        try:
            status, payload = server.post(
                "/query", {"sql": sql, "deadline_ms": 150})
            assert status == 408
            assert "deadline" in payload["error"]
        finally:
            tenant.lock.release_write()
        # The timed-out request released its slot once its thread
        # finished; the tenant still works.
        status, _ = server.post("/query", {"sql": sql})
        assert status == 200
        admission = server.wait_admission(lambda a: a["executing"] == 0)
        assert admission["waiting"] == 0

    def test_deadline_header_applies(self, live_server):
        server = live_server()
        sql = server.create_tables()
        tenant = server.service.tenants.get("default")
        tenant.lock.acquire_write()
        try:
            status, _ = server.post(
                "/query", {"sql": sql},
                headers={"x-repro-deadline-ms": "150"})
            assert status == 408
        finally:
            tenant.lock.release_write()
        server.wait_admission(lambda a: a["executing"] == 0)

    def test_overload_sheds_429_and_admitted_complete(self, live_server):
        server = live_server(workers=1, queue_depth=1)
        sql = server.create_tables()
        tenant = server.service.tenants.get("default")
        tenant.lock.acquire_write()
        results = []

        def fire():
            results.append(server.post(
                "/query", {"sql": sql, "deadline_ms": 0}))

        first = threading.Thread(target=fire)
        first.start()
        try:
            # Request 1 occupies the only worker (blocked on the lock).
            server.wait_admission(lambda a: a["executing"] == 1)
            second = threading.Thread(target=fire)
            second.start()
            # Request 2 fills the one-deep waiting room.
            server.wait_admission(lambda a: a["waiting"] == 1)
            # Request 3 must be shed, immediately, with a 429.
            status, payload = server.post(
                "/query", {"sql": sql, "deadline_ms": 0})
            assert status == 429
            assert "queue full" in payload["error"]
        finally:
            tenant.lock.release_write()
        first.join(30)
        second.join(30)
        # Every *admitted* request completed correctly despite overload.
        assert [status for status, _ in results] == [200, 200]
        for _, payload in results:
            assert sorted(payload["rows"]) == [[1], [2]]
        _, health = server.get("/healthz")
        assert health["admission"]["shed"] == 1
        assert health["admission"]["completed"] >= 2

    def test_draining_is_503(self, live_server):
        server = live_server()
        server.create_tables()
        server.service._draining = True
        try:
            status, payload = server.post("/query", {"sql": SQL})
            assert status == 503
            assert "draining" in payload["error"]
            _, health = server.get("/healthz")
            assert health["status"] == "draining"
        finally:
            server.service._draining = False

    def test_dead_pool_worker_is_503_not_400(self, live_server, monkeypatch):
        # A worker dying is the server's fault; the broken executor is
        # already evicted, so the client may simply retry.
        from repro.errors import WorkerPoolError
        from repro.serve.state import Tenant

        def dead(self, sql, options, deadline=None):
            raise WorkerPoolError("a process pool worker died")

        server = live_server()
        server.create_tables()
        monkeypatch.setattr(Tenant, "run_query", dead)
        status, payload = server.post("/query", {"sql": SQL})
        assert status == 503
        assert "worker died" in payload["error"]


class TestMetricsIsolation:
    def test_interleaved_requests_keep_private_counters(self, live_server):
        # Tenant "hot" serves every query from its rollup store; tenant
        # "cold" executes every time (rollup off, cache off).  Run both
        # concurrently: without per-request metrics scoping the shared
        # registry would bleed rollup hits into cold responses (and
        # misses into hot ones), flipping served_by classifications.
        server = live_server(workers=4)
        sql = server.create_tables(tenant="hot")
        server.create_tables(tenant="cold")
        warm_status, warm = server.post(
            "/query", {"tenant": "hot", "sql": sql, "options": GMDJ_OPTS})
        assert warm_status == 200 and warm["served_by"] == "execute"

        cold_options = {"strategy": "gmdj", "rollup": "off",
                        "use_cache": False}
        outcomes = []

        def hot():
            outcomes.append(("hot", server.post(
                "/query",
                {"tenant": "hot", "sql": sql, "options": GMDJ_OPTS})))

        def cold():
            outcomes.append(("cold", server.post(
                "/query",
                {"tenant": "cold", "sql": sql, "options": cold_options})))

        threads = [threading.Thread(target=hot if i % 2 else cold)
                   for i in range(12)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert len(outcomes) == 12
        for kind, (status, payload) in outcomes:
            assert status == 200
            counters = payload["metrics"]["counters"]
            if kind == "hot":
                assert payload["served_by"] == "rollup"
                assert payload["detail_scans"] == 0
                assert counters.get("rollup.exact_hits", 0) == 1
                assert "rollup.misses" not in counters
            else:
                assert payload["served_by"] == "execute"
                assert payload["detail_scans"] >= 1
                assert "rollup.exact_hits" not in counters
                assert "cache.result_hits" not in counters


class TestLifecycle:
    def test_shutdown_closes_tenants_and_pools(self, live_server):
        server = live_server()
        sql = server.create_tables()
        server.post("/query", {"sql": sql})
        tenant = server.service.tenants.get("default")
        server.stop()
        assert server.service.draining
        assert tenant.db.closed
        assert tenant.db.pools.closed
        assert server.service.pools.closed
