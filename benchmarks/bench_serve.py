"""Closed-loop load generation against the repro.serve query service.

Boots the real asyncio service (ephemeral port, in-process) and drives
it with a fixed population of keep-alive HTTP clients — a *closed*
system: each client issues its next request only after the previous
response lands, so offered load adapts to service capacity and the
measured latencies are honest (no coordinated-omission inflation from
an open-loop arrival schedule).

Three questions, answered into ``BENCH_serve.json``:

* **Serving-tier throughput** — p50/p99 latency and QPS at 1/2/4
  dispatcher workers, for both a rollup-served workload (every response
  must report ``served_by: rollup`` with zero detail scans — the
  Prop 4.1 certificate over the wire) and a cold execute workload that
  actually scans the detail per request.
* **Overload behaviour** — a burst wider than workers+queue_depth must
  shed the excess with 429s while every *admitted* request completes
  with correct rows: bounded queue ⇒ bounded tail.
* **Drain** — shutdown under load returns cleanly (exercised implicitly:
  every point tears its service down after measuring).

The module doubles as the CI smoke leg's load generator::

    python benchmarks/bench_serve.py --url http://HOST:PORT \
        --clients 4 --requests 10 --output latency.json

which fires the same workloads at an externally booted ``repro serve``,
asserts the 2xx/zero-detail-scan invariants, and writes a latency
report — exiting non-zero on any violation.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

SQL = ("SELECT K FROM B b WHERE EXISTS "
       "(SELECT * FROM R r WHERE r.K = b.K)")

ROLLUP_OPTIONS = {"strategy": "gmdj", "rollup": "subsume",
                  "use_cache": False}
EXECUTE_OPTIONS = {"strategy": "gmdj", "backend": "python",
                   "rollup": "off", "use_cache": False}

BASE_ROWS = 50
DETAIL_ROWS = 20_000
WORKER_POINTS = (1, 2, 4)
CLIENTS = 8
REQUESTS_PER_CLIENT = 25


class Client:
    """One keep-alive HTTP client (stdlib only, shared by CI)."""

    def __init__(self, host: str, port: int, timeout: float = 60.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._connection = None

    def _connect(self):
        if self._connection is None:
            self._connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout)
        return self._connection

    def request(self, method: str, path: str, payload=None):
        body = None if payload is None else json.dumps(payload)
        try:
            connection = self._connect()
            connection.request(method, path, body=body)
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        except (http.client.HTTPException, OSError):
            self.close()  # stale keep-alive: reconnect once
            connection = self._connect()
            connection.request(method, path, body=body)
            response = connection.getresponse()
            return response.status, json.loads(response.read())

    def post(self, path: str, payload):
        return self.request("POST", path, payload)

    def close(self):
        if self._connection is not None:
            self._connection.close()
            self._connection = None


def create_tables(client: Client, base_rows: int = BASE_ROWS,
                  detail_rows: int = DETAIL_ROWS,
                  tenant: str = "default") -> None:
    """Install the benchmark's B/R pair through /ddl."""
    from repro.data.rng import make_rng

    rng = make_rng(11, "serve")
    statements = [
        {"op": "create_table", "name": "B",
         "columns": [["K", "integer"]],
         "rows": [[i] for i in range(base_rows)]},
        {"op": "create_table", "name": "R",
         "columns": [["K", "integer"], ["V", "integer"]],
         "rows": [[rng.randrange(2 * base_rows), rng.randint(0, 1000)]
                  for _ in range(detail_rows)]},
    ]
    for statement in statements:
        status, payload = client.post(
            "/ddl", {"tenant": tenant, "statement": statement})
        assert status == 200, f"ddl failed: {status} {payload}"


def percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile over an already-sorted sample."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1,
               max(0, round(fraction * (len(sorted_values) - 1))))
    return sorted_values[rank]


def closed_loop(host: str, port: int, body: dict, clients: int,
                requests_per_client: int) -> dict:
    """Drive the service with a closed client population; summarize."""
    latencies: list[float] = []
    outcomes: list[tuple[int, dict]] = []
    lock = threading.Lock()
    barrier = threading.Barrier(clients + 1)

    def worker():
        client = Client(host, port)
        local_latencies, local_outcomes = [], []
        barrier.wait()
        for _ in range(requests_per_client):
            started = time.perf_counter()
            status, payload = client.post("/query", body)
            local_latencies.append(
                (time.perf_counter() - started) * 1000.0)
            local_outcomes.append((status, payload))
        client.close()
        with lock:
            latencies.extend(local_latencies)
            outcomes.extend(local_outcomes)

    threads = [threading.Thread(target=worker) for _ in range(clients)]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started

    latencies.sort()
    statuses: dict[int, int] = {}
    served_by: dict[str, int] = {}
    detail_scans = 0
    for status, payload in outcomes:
        statuses[status] = statuses.get(status, 0) + 1
        if status == 200:
            served_by[payload["served_by"]] = (
                served_by.get(payload["served_by"], 0) + 1)
            detail_scans += payload.get("detail_scans", 0)
    return {
        "requests": len(outcomes),
        "wall_seconds": round(wall, 4),
        "qps": round(len(outcomes) / wall, 1),
        "p50_ms": round(percentile(latencies, 0.50), 3),
        "p99_ms": round(percentile(latencies, 0.99), 3),
        "max_ms": round(percentile(latencies, 1.0), 3),
        "statuses": {str(k): v for k, v in sorted(statuses.items())},
        "served_by": dict(sorted(served_by.items())),
        "detail_scans_total": detail_scans,
    }


# -- embedded service lifecycle (benchmark mode) ----------------------------


class EmbeddedServer:
    """The real QueryService on an ephemeral port, in a loop thread."""

    def __init__(self, **overrides):
        import asyncio

        from repro.serve import QueryService, ServeConfig

        self.service = QueryService(ServeConfig(port=0, **overrides))
        self.loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        assert self._ready.wait(10), "service failed to start"

    def _run(self):
        import asyncio

        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.service.start())
        self._ready.set()
        self.loop.run_forever()

    @property
    def port(self) -> int:
        return self.service.port

    def stop(self):
        import asyncio

        future = asyncio.run_coroutine_threadsafe(
            self.service.shutdown(), self.loop)
        future.result(30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(10)
        self.loop.close()


def _measure_worker_point(workers: int) -> dict:
    server = EmbeddedServer(workers=workers, queue_depth=64)
    try:
        setup = Client("127.0.0.1", server.port)
        create_tables(setup)
        # Prime the rollup store, then verify the wire-level certificate.
        status, warm = setup.post(
            "/query", {"sql": SQL, "options": ROLLUP_OPTIONS})
        assert status == 200 and warm["served_by"] == "execute"
        status, hit = setup.post(
            "/query", {"sql": SQL, "options": ROLLUP_OPTIONS})
        assert status == 200 and hit["served_by"] == "rollup"
        assert hit["detail_scans"] == 0
        setup.close()

        point = {"workers": workers}
        point["rollup_hit"] = closed_loop(
            "127.0.0.1", server.port,
            {"sql": SQL, "options": ROLLUP_OPTIONS},
            clients=CLIENTS, requests_per_client=REQUESTS_PER_CLIENT)
        point["execute"] = closed_loop(
            "127.0.0.1", server.port,
            {"sql": SQL, "options": EXECUTE_OPTIONS},
            clients=CLIENTS, requests_per_client=5)
        return point
    finally:
        server.stop()


def _measure_overload() -> dict:
    """A burst wider than workers+queue must shed, not queue unboundedly."""
    server = EmbeddedServer(workers=1, queue_depth=2)
    try:
        setup = Client("127.0.0.1", server.port)
        create_tables(setup)
        setup.close()
        burst = 12
        results = []
        lock = threading.Lock()
        barrier = threading.Barrier(burst)

        def one_shot():
            client = Client("127.0.0.1", server.port)
            barrier.wait()
            status, payload = client.post(
                "/query", {"sql": SQL, "options": EXECUTE_OPTIONS})
            client.close()
            with lock:
                results.append((status, payload))

        threads = [threading.Thread(target=one_shot) for _ in range(burst)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        shed = sum(1 for status, _ in results if status == 429)
        completed = [payload for status, payload in results
                     if status == 200]
        row_sets = {tuple(sorted(map(tuple, payload["rows"])))
                    for payload in completed}
        return {
            "burst": burst,
            "workers": 1,
            "queue_depth": 2,
            "shed_429": shed,
            "completed_200": len(completed),
            "other": len(results) - shed - len(completed),
            "admitted_rows_consistent": len(row_sets) == 1,
        }
    finally:
        server.stop()


def test_serve_report(benchmark):
    """Latency/QPS at 1/2/4 workers + overload shedding → BENCH_serve.json."""
    from conftest import write_json, write_report

    def run():
        payload = {
            "clients": CLIENTS,
            "requests_per_client": REQUESTS_PER_CLIENT,
            "base_rows": BASE_ROWS,
            "detail_rows": DETAIL_ROWS,
            "worker_points": {},
        }
        lines = [
            "== repro.serve closed-loop load (clients={}) ==".format(CLIENTS),
            f"|B|={BASE_ROWS}  |R|={DETAIL_ROWS}",
            f"{'workers':>7} {'workload':<12} {'qps':>8} {'p50 ms':>8} "
            f"{'p99 ms':>8}",
        ]
        for workers in WORKER_POINTS:
            point = _measure_worker_point(workers)
            payload["worker_points"][str(workers)] = point
            for workload in ("rollup_hit", "execute"):
                summary = point[workload]
                lines.append(
                    f"{workers:>7} {workload:<12} {summary['qps']:>8} "
                    f"{summary['p50_ms']:>8} {summary['p99_ms']:>8}"
                )
        payload["overload"] = _measure_overload()
        overload = payload["overload"]
        lines.append(
            f"overload burst={overload['burst']} (1 worker, queue 2): "
            f"{overload['shed_429']} shed with 429, "
            f"{overload['completed_200']} completed"
        )
        return payload, "\n".join(lines)

    payload, text = benchmark.pedantic(run, rounds=1, iterations=1)
    print(text)
    write_report("serve_load", text)
    write_json("BENCH_serve", payload)

    for workers, point in payload["worker_points"].items():
        for workload in ("rollup_hit", "execute"):
            summary = point[workload]
            assert summary["statuses"] == {
                "200": summary["requests"]
            }, f"workers={workers} {workload}: non-200 under closed loop"
        # Every measured rollup_hit response was served by the store
        # without touching the detail: Prop 4.1 at workload scale.
        rollup = point["rollup_hit"]
        assert rollup["served_by"] == {"rollup": rollup["requests"]}
        assert rollup["detail_scans_total"] == 0
        execute = point["execute"]
        assert execute["served_by"] == {"execute": execute["requests"]}
        assert execute["detail_scans_total"] >= execute["requests"]
    overload = payload["overload"]
    assert overload["shed_429"] >= 1, "burst never shed: queue not bounded"
    assert overload["completed_200"] >= 1
    assert overload["other"] == 0
    assert overload["admitted_rows_consistent"]


# -- CI smoke mode -----------------------------------------------------------


def smoke(url: str, clients: int, requests: int, output: str | None) -> int:
    """Fire the load burst at an externally booted ``repro serve``.

    Asserts every response is 2xx and every warm rollup-served request
    reports zero detail scans; writes a latency report for the CI
    artifact.  Returns a process exit code.
    """
    from urllib.parse import urlsplit

    split = urlsplit(url)
    host, port = split.hostname, split.port
    assert host and port, f"need host:port in url, got {url!r}"

    setup = Client(host, port)
    create_tables(setup, base_rows=20, detail_rows=2000, tenant="smoke")
    body = {"tenant": "smoke", "sql": SQL, "options": ROLLUP_OPTIONS}
    status, warm = setup.post("/query", body)
    assert status == 200, f"warm query failed: {status} {warm}"
    status, probe = setup.post("/query", body)
    assert status == 200 and probe["served_by"] == "rollup", probe
    assert probe["detail_scans"] == 0, probe

    summary = closed_loop(host, port, body, clients=clients,
                          requests_per_client=requests)
    status, metrics = setup.request("GET", "/metrics")
    setup.close()
    assert status == 200
    report = {"burst": summary, "metrics_statuses": metrics["statuses"]}
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if output:
        from pathlib import Path

        Path(output).write_text(text + "\n")

    ok = (summary["statuses"] == {"200": summary["requests"]}
          and summary["served_by"] == {"rollup": summary["requests"]}
          and summary["detail_scans_total"] == 0)
    if not ok:
        print("serve smoke FAILED: non-2xx responses or a rollup-served "
              "request that scanned the detail")
        return 1
    print(f"serve smoke OK: {summary['requests']} requests, all 200, "
          f"all rollup-served, zero detail scans "
          f"(p50={summary['p50_ms']}ms p99={summary['p99_ms']}ms)")
    return 0


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Closed-loop load generator for repro serve")
    parser.add_argument("--url", required=True,
                        help="base URL of a running repro serve")
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--requests", type=int, default=10,
                        help="requests per client")
    parser.add_argument("--output", default=None,
                        help="write the latency report JSON here")
    args = parser.parse_args(argv)
    return smoke(args.url, args.clients, args.requests, args.output)


if __name__ == "__main__":
    raise SystemExit(main())
