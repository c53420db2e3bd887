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
import dataclasses
import http.client
import json
import sys
import threading
import time

import pytest

from repro.serve import QueryService, ServeConfig, TenantRegistry, parse_options

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
        self._thread = threading.Thread(target=self._loop_forever, daemon=True)
        self._thread.start()
        assert self._ready.wait(10), "service failed to start"

    def _loop_forever(self):
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
        status, _ = server.post("/ddl", {"tenant": "first", "statement": {
            "op": "create_table", "name": "B", "columns": [["K", "integer"]],
        }})
        assert status == 200  # the first tenant fits, and stays
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

    def test_refused_body_takes_no_tenant_slot(self, live_server):
        # Tenants never expire: a body refused after the tenant lookup
        # would keep its slot for good.
        server = live_server(max_tenants=2)
        for tenant in ("t0", "t1"):
            status, _ = server.post("/query", {"tenant": tenant, "sql": ""})
            assert status == 400
        assert server.get("/healthz")[1]["tenants"] == 0
        status, _ = server.post("/ddl", {"tenant": "t2", "statement": {
            "op": "create_table", "name": "B", "columns": [["K", "integer"]],
        }})
        assert status == 200

    def test_failed_request_keeps_no_tenant_it_created(self, live_server):
        # Bodies that pass admission and fail in the tenant: an unknown
        # ddl op, an insert into a missing table.
        server = live_server(max_tenants=2)
        for tenant, statement in (
                ("t0", {"op": "nope"}),
                ("t1", {"op": "insert", "name": "missing", "rows": [[1]]})):
            status, _ = server.post("/ddl", {"tenant": tenant,
                                             "statement": statement})
            assert status == 400, tenant
        status, _ = server.post("/ddl", {"tenant": "t2", "statement": {
            "op": "create_table", "name": "B", "columns": [["K", "integer"]],
        }})
        assert status == 200
        assert server.get("/healthz")[1]["tenants"] == 1
        # A query against a fresh tenant fails the same way; a tenant a
        # request did keep stays when a later request on it fails.
        for tenant, path, body in (
                ("t3", "/query", {"sql": "SELECT K FROM missing"}),
                ("t2", "/ddl", {"statement": {"op": "nope"}})):
            status, _ = server.post(path, {"tenant": tenant, **body})
            assert status == 400, tenant
        assert server.get("/healthz")[1]["tenants"] == 1

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
        ("partitions", 2),            # the server's decision: unbounded
        ("workers", 2),               # the server's decision: unbounded
        ("mode", "gmdj_vectorized"),  # removed: kernel/fragmenter knobs
        ("lint", "strict"),           # removed: the execution gate
    ])
    def test_unknown_option_field_is_400(self, live_server, field, value):
        # Counts of 2 only: the point is the rejection, not the fan-out.
        server = live_server()
        server.create_tables()
        tenant = server.service.tenants.get("default")
        admitted = server.service.admission.admitted
        for path in ("/query", "/batch", "/explain"):
            status, payload = server.post(path, {
                "sql": SQL, "queries": [SQL, SQL],
                "options": {field: value}})
            assert status == 400
            assert field in payload["error"]
            assert "allowed" in payload["error"]
        assert server.service.admission.admitted == admitted
        assert tenant.queries == 0
        assert tenant.db.pools._pools == {}

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


class TestTenantRegistry:
    def test_racing_requests_keep_exactly_the_tenants_one_succeeded_on(self):
        # More threads than cores create, hold and release eight tenants
        # at a shortened switch interval; each thread succeeds only on
        # its own even-numbered tenant and fails everywhere else.  A
        # tenant some request succeeded on stays, one every request on
        # it failed goes, and no holder count is lost.
        registry = TenantRegistry(max_tenants=8)
        names = [f"t{i}" for i in range(8)]
        barrier = threading.Barrier(8)

        def requests(worker: int) -> None:
            barrier.wait(10)
            for step in range(400):
                name = names[(worker + step) % len(names)]
                try:
                    with registry.holding(name):
                        if name != names[worker] or worker % 2:
                            raise ValueError("refused")
                except ValueError:
                    pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=requests, args=(worker,))
                       for worker in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [name for name, _ in registry.items()] == names[::2]
        assert registry._provisional == {}


class TestFailClosed:
    """A request chooses what it runs, not how the server runs it, and a
    body field the server cannot read exactly is a 400 that executes,
    inserts and pools nothing."""

    def test_request_option_fields(self):
        from repro.serve.state import DEFAULT_OPTIONS, OPTION_FIELDS

        assert OPTION_FIELDS == {"strategy", "backend", "use_cache",
                                 "rollup"}
        assert parse_options(None) is DEFAULT_OPTIONS
        assert parse_options({"backend": "row"}).backend == "row"
        # The server has no execution options of its own to fall back to.
        assert [field.name for field in dataclasses.fields(ServeConfig)] == [
            "host", "port", "workers", "queue_depth", "deadline_ms",
            "max_body", "max_tenants", "cache_size", "drain_grace_s"]

    @pytest.mark.parametrize("analyze", ["false", "no", "true", 1, 0, None],
                             ids=repr)
    def test_analyze_that_is_not_a_boolean_is_400(self, live_server,
                                                  analyze):
        server = live_server()
        sql = server.create_tables()
        admitted = server.service.admission.admitted
        status, payload = server.post(
            "/explain", {"sql": sql, "analyze": analyze})
        assert status == 400, payload
        assert "analyze" in payload["error"]
        assert server.service.admission.admitted == admitted

    @pytest.mark.parametrize("op", ["insert", "create_table"])
    def test_ddl_row_that_is_not_an_array_is_400(self, live_server, op):
        server = live_server()
        columns = [["P", "string"], ["Q", "string"], ["R", "string"]]
        status, _ = server.post("/ddl", {"statement": {
            "op": "create_table", "name": "T", "columns": columns,
            "rows": [["a", "b", "c"]]}})
        assert status == 200
        # tuple() would spread a string or an object into a row
        # ('x', 'y', 'z'), ('p', 'q', 'r'); the valid first row must not
        # land either.
        rows = [["d", "e", "f"], "xyz", {"p": 1, "q": 2, "r": 3}]
        name = "T" if op == "insert" else "U"
        status, payload = server.post("/ddl", {"statement": {
            "op": op, "name": name, "columns": columns, "rows": rows}})
        assert status == 400, payload
        assert "row arrays" in payload["error"]
        db = server.service.tenants.get("default").db
        assert len(db.table("T")) == 1
        assert "U" not in db.catalog.table_names()


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
        with pytest.raises(RuntimeError):  # the dispatcher takes no more work
            server.service._executor.submit(lambda: None)


class TestLoopAnswers:
    """A hit is answered on the event loop; everything that reads a
    stored table is handed to a worker thread."""

    #: The payloads of a warm cache hit and a warm rollup hit (all keys
    #: but ``elapsed_ms``), as the worker path answers them.
    CACHE_HIT = {
        "tenant": "default", "columns": ["b.K"], "rows": [[1], [2]],
        "row_count": 2, "served_by": "cache", "detail_scans": 0, "io": {},
        "metrics": {"counters": {"cache.result_hits": 1}},
    }
    ROLLUP_HIT = {
        "tenant": "default", "columns": ["b.K"], "rows": [[1], [2]],
        "row_count": 2, "served_by": "rollup", "detail_scans": 0,
        "io": {"pages_read": 3, "predicate_evals": 3, "relation_scans": 3,
               "tuples_output": 6, "tuples_scanned": 7},
        "metrics": {"counters": {"columnar.cache_hits": 3,
                                 "flat.columnar": 3,
                                 "rollup.exact_hits": 1}},
    }

    @staticmethod
    def loop_counters(server):
        _, metrics = server.get("/metrics")
        counters = metrics["registry"]["counters"]
        return (counters.get("serve.loop_answers", 0),
                counters.get("serve.loop_handoffs", 0))

    @staticmethod
    def record_scans(monkeypatch):
        """The threads that read a stored table through a scan."""
        from repro.algebra.operators import ScanTable

        scanned_on = set()
        evaluate = ScanTable.evaluate

        def recorded(node, catalog):
            relation = evaluate(node, catalog)  # the loop's raises here
            scanned_on.add(threading.current_thread())
            return relation

        monkeypatch.setattr(ScanTable, "evaluate", recorded)
        return scanned_on

    @staticmethod
    def count_submits(server, monkeypatch):
        submitted = []
        executor = server.service._executor
        submit = executor.submit

        def counted(*args, **kwargs):
            submitted.append(args)
            return submit(*args, **kwargs)

        monkeypatch.setattr(executor, "submit", counted)
        return submitted

    @pytest.mark.parametrize("options, expected", [
        (None, CACHE_HIT), (GMDJ_OPTS, ROLLUP_HIT),
    ], ids=["cache", "rollup"])
    def test_a_warm_hit_never_reaches_the_executor(
            self, live_server, monkeypatch, options, expected):
        server = live_server()
        sql = server.create_tables()
        submitted = self.count_submits(server, monkeypatch)
        body = {"sql": sql} if options is None else {
            "sql": sql, "options": options}
        status, cold = server.post("/query", body)
        assert status == 200 and cold["served_by"] == "execute"
        assert len(submitted) == 1
        answers, handoffs = self.loop_counters(server)
        status, hit = server.post("/query", body)
        assert status == 200
        assert len(submitted) == 1  # no thread hop
        assert self.loop_counters(server) == (answers + 1, handoffs)
        hit.pop("elapsed_ms")
        assert hit == expected

    @pytest.mark.parametrize("options", [
        {"rollup": "subsume", "use_cache": False},
        {"rollup": "subsume", "use_cache": False, "backend": "row"},
        {"rollup": "subsume", "strategy": "naive"},
    ], ids=["fused-exists", "fused-exists-row", "naive"])
    @pytest.mark.parametrize("sql, rows", [
        (SQL, [[1], [2]]),
        ("SELECT K FROM R r WHERE r.V > 7", [[1], [1]]),
    ], ids=["exists", "flat"])
    def test_b_a_stored_read_hands_off_and_never_scans_on_the_loop(
            self, live_server, monkeypatch, options, sql, rows):
        server = live_server()
        server.create_tables()
        scanned_on = self.record_scans(monkeypatch)
        answers, handoffs = self.loop_counters(server)
        status, payload = server.post(
            "/query", {"sql": sql, "options": options})
        assert status == 200, payload
        assert sorted(payload["rows"]) == rows
        assert payload["served_by"] == "execute"
        assert self.loop_counters(server) == (answers, handoffs + 1)
        assert scanned_on and server._thread not in scanned_on

    def test_b_a_fused_exists_never_serves_or_scans_on_the_loop(
            self, live_server, monkeypatch):
        # A fused SelectGMDJ bypasses the rollup hook: each run scans,
        # so each hands off, warm or cold.
        server = live_server()
        server.create_tables()
        options = {"rollup": "subsume", "use_cache": False}
        scanned_on = self.record_scans(monkeypatch)
        answers, handoffs = self.loop_counters(server)
        for _ in range(2):
            _, payload = server.post(
                "/query", {"sql": SQL, "options": options})
            assert payload["served_by"] == "execute"
        assert self.loop_counters(server) == (answers, handoffs + 2)
        assert server._thread not in scanned_on

    def test_c_a_held_or_awaited_write_lock_hands_off_without_blocking(
            self, live_server):
        server = live_server()
        sql = server.create_tables()
        server.post("/query", {"sql": sql})
        _, warm = server.post("/query", {"sql": sql})
        assert warm["served_by"] == "cache"
        tenant = server.service.tenants.get("default")
        lock = tenant.lock

        def blocked_query():
            results = []
            thread = threading.Thread(target=lambda: results.append(
                server.post("/query", {"sql": sql, "deadline_ms": 0})))
            thread.start()
            # The loop handed the request off: it waits on a worker,
            # and the loop still answers.
            server.wait_admission(lambda a: a["executing"] == 1)
            assert server.get("/healthz")[0] == 200
            return thread, results

        answers, handoffs = self.loop_counters(server)
        lock.acquire_write()  # a writer holds the lock
        try:
            thread, held = blocked_query()
        finally:
            lock.release_write()
        thread.join(30)
        assert self.loop_counters(server) == (answers, handoffs + 1)

        lock.acquire_read()  # ... and a writer waits behind a reader
        writer = threading.Thread(target=lambda: (
            lock.acquire_write(), lock.release_write()))
        writer.start()
        try:
            deadline = time.monotonic() + 10
            while lock.snapshot()["writers_waiting"] != 1:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            thread, waited = blocked_query()
        finally:
            lock.release_read()
        writer.join(30)
        thread.join(30)
        assert self.loop_counters(server) == (answers, handoffs + 2)
        for status, payload in held + waited:
            assert status == 200
            assert payload["served_by"] == "cache"
            assert sorted(payload["rows"]) == [[1], [2]]

        status, _ = server.post("/ddl", {"statement": {
            "op": "insert", "name": "R", "rows": [[3, 9]]}})
        assert status == 200
        _, after = server.post("/query", {"sql": sql})
        assert after["served_by"] == "execute"
        assert sorted(after["rows"]) == [[1], [2], [3]]

    def test_d_tier_counts_match_the_worker_path(self, live_server):
        # Cold, warm, insert, warm, for the result cache and the rollup
        # store: a hand-off counts each probe once, so the tenant's
        # numbers are those of every request run on a worker.
        server = live_server()
        sql = server.create_tables()
        answers, handoffs = self.loop_counters(server)
        bodies = [{"sql": sql}, {"sql": sql, "options": GMDJ_OPTS}]
        for body in bodies * 2:
            assert server.post("/query", body)[0] == 200
        server.post("/ddl", {"statement": {
            "op": "insert", "name": "R", "rows": [[3, 9]]}})
        for body in bodies:
            assert server.post("/query", body)[0] == 200
        _, metrics = server.get("/metrics")
        tenant = metrics["tenants"]["default"]
        assert tenant["cache"] == {
            "translations": 1, "results": 1,
            "translation_hits": 1, "translation_misses": 1,
            "result_hits": 1, "result_misses": 2,
            "invalidations": 2, "table_invalidations": 1,
        }
        assert tenant["rollups"] == {
            "entries": 1, "exact_hits": 1, "subsume_hits": 0,
            "misses": 2, "stores": 2,
            "invalidations": 2, "table_invalidations": 1,
        }
        assert self.loop_counters(server) == (answers + 2, handoffs + 4)
